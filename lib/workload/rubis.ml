(** RUBiS benchmark substrate (§6.2 of the paper).

    RUBiS models an online auction site (eBay-like) with 26 interaction
    types, five of which are updates.  Following the paper's adaptation
    to a partitioned key-value store:

    - every table is horizontally sharded: each node's partition holds
      an equal share of users, items, bids, comments and buy-now rows;
    - every shard keeps {e local ID-index counters}, so insertions
      obtain a unique ID from a node-local key instead of a global
      index (this is the paper's modification (ii); the counters are
      the workload's local contention hotspots);
    - browsing targets items on any shard (popular items are drawn with
      Zipfian skew), so bid/buy-now updates on remote items make the
      writing transactions "unsafe" in STR terms.

    We run the default 15% update mix with RUBiS's default think times
    (uniform between 2 and 10 seconds). *)

open Store
module Key = Keyspace.Key
module Value = Keyspace.Value

type params = {
  users_per_node : int;
  items_per_node : int;
  categories : int;
  regions : int;
  think_min_us : int;
  think_max_us : int;
  item_skew_theta : float;  (** popularity skew of browsed/bid items *)
}

let default =
  {
    users_per_node = 200;
    items_per_node = 400;
    categories = 20;
    regions = 62;
    think_min_us = 2_000_000;
    think_max_us = 10_000_000;
    item_skew_theta = 0.8;
  }

(* ---- key schema (partition = shard node; cat/region spread) ---- *)

let counter_key node table = Key.v ~partition:node ("ctr/" ^ table)
let user_key node id = Key.v ~partition:node ("user/" ^ string_of_int id)
let item_key node id = Key.v ~partition:node ("item/" ^ string_of_int id)
let bid_key node id = Key.v ~partition:node ("bid/" ^ string_of_int id)
let comment_key node id = Key.v ~partition:node ("comment/" ^ string_of_int id)
let buynow_key node id = Key.v ~partition:node ("buynow/" ^ string_of_int id)
let category_key n_nodes c = Key.v ~partition:(c mod n_nodes) ("cat/" ^ string_of_int c)
let region_key n_nodes r = Key.v ~partition:(r mod n_nodes) ("region/" ^ string_of_int r)

(* ---- dataset ---- *)

let load p n_nodes eng =
  for c = 0 to p.categories - 1 do
    Core.Engine.load eng (category_key n_nodes c)
      (Value.Rec [ ("name", Value.Str (Printf.sprintf "category-%d" c)); ("items", Value.Int 0) ])
  done;
  for r = 0 to p.regions - 1 do
    Core.Engine.load eng (region_key n_nodes r)
      (Value.Rec [ ("name", Value.Str (Printf.sprintf "region-%d" r)) ])
  done;
  for node = 0 to n_nodes - 1 do
    Core.Engine.load eng (counter_key node "user") (Value.Int p.users_per_node);
    Core.Engine.load eng (counter_key node "item") (Value.Int p.items_per_node);
    Core.Engine.load eng (counter_key node "bid") (Value.Int 0);
    Core.Engine.load eng (counter_key node "comment") (Value.Int 0);
    Core.Engine.load eng (counter_key node "buynow") (Value.Int 0);
    for u = 0 to p.users_per_node - 1 do
      Core.Engine.load eng (user_key node u)
        (Value.Rec
           [
             ("rating", Value.Int 0);
             ("balance", Value.Int 0);
             ("region", Value.Int ((u + node) mod p.regions));
           ])
    done;
    for i = 0 to p.items_per_node - 1 do
      Core.Engine.load eng (item_key node i)
        (Value.Rec
           [
             ("seller", Value.Int (i mod p.users_per_node));
             ("category", Value.Int ((i + node) mod p.categories));
             ("qty", Value.Int 10);
             ("max_bid", Value.Int 0);
             ("nb_bids", Value.Int 0);
             ("price", Value.Int (10 + (i mod 490)));
           ])
    done
  done

(* ---- helpers ---- *)

(* Pre-loaded rows only: freshly inserted rows are also reachable since
   counters only grow, but browsing concentrates on the initial
   population for simplicity. *)
let pick_item _p zipf rng n_nodes =
  let node = Dsim.Rng.int rng n_nodes in
  let id = Zipf.draw zipf rng in
  (node, id, item_key node id)

let pick_user p rng n_nodes =
  let node = Dsim.Rng.int rng n_nodes in
  let id = Dsim.Rng.int rng p.users_per_node in
  (node, id, user_key node id)

let read_ eng tx key = ignore (Core.Engine.read eng tx key)

(** Atomically draw the next id from a node-local counter. *)
let next_id eng tx node table =
  let k = counter_key node table in
  let v = Spec.read_int eng tx k in
  Core.Engine.write eng tx k (Value.Int (v + 1));
  v

let update_row eng tx key f =
  match Core.Engine.read eng tx key with
  | Some (Value.Rec _ as row) -> Core.Engine.write eng tx key (f row)
  | Some _ | None -> ()

let bump_field eng tx key field delta =
  update_row eng tx key (fun row ->
      let v = Value.int (Value.field row field) in
      Value.set_field row field (Value.Int (v + delta)))

(* ---- the 26 interactions ---- *)

type interaction = {
  name : string;
  weight : float;
  update : bool;
  make_body : params -> Zipf.t -> Dsim.Rng.t -> n_nodes:int -> node:int
              -> Core.Engine.t -> Core.Types.tx -> unit;
}

(* Read-only browsing bodies.  Each models the storage accesses of the
   corresponding RUBiS servlet. *)

let body_home _p _z _rng ~n_nodes ~node:_ eng tx =
  read_ eng tx (category_key n_nodes 0);
  read_ eng tx (region_key n_nodes 0)

let body_browse _p _z _rng ~n_nodes ~node:_ eng tx =
  read_ eng tx (category_key n_nodes 0)

let body_browse_categories p _z rng ~n_nodes ~node:_ eng tx =
  for _ = 1 to 5 do
    read_ eng tx (category_key n_nodes (Dsim.Rng.int rng p.categories))
  done

let body_search_items_in_category p z rng ~n_nodes ~node:_ eng tx =
  let c = Dsim.Rng.int rng p.categories in
  read_ eng tx (category_key n_nodes c);
  for _ = 1 to 8 do
    let _, _, ik = pick_item p z rng n_nodes in
    read_ eng tx ik
  done

let body_browse_regions p _z rng ~n_nodes ~node:_ eng tx =
  for _ = 1 to 5 do
    read_ eng tx (region_key n_nodes (Dsim.Rng.int rng p.regions))
  done

let body_browse_categories_in_region p _z rng ~n_nodes ~node:_ eng tx =
  read_ eng tx (region_key n_nodes (Dsim.Rng.int rng p.regions));
  for _ = 1 to 3 do
    read_ eng tx (category_key n_nodes (Dsim.Rng.int rng p.categories))
  done

let body_search_items_in_region p z rng ~n_nodes ~node:_ eng tx =
  read_ eng tx (region_key n_nodes (Dsim.Rng.int rng p.regions));
  for _ = 1 to 6 do
    let _, _, ik = pick_item p z rng n_nodes in
    read_ eng tx ik
  done

let body_view_item p z rng ~n_nodes ~node:_ eng tx =
  let _, _, ik = pick_item p z rng n_nodes in
  read_ eng tx ik

let body_view_user_info p _z rng ~n_nodes ~node:_ eng tx =
  let _, _, uk = pick_user p rng n_nodes in
  read_ eng tx uk

let body_view_bid_history p z rng ~n_nodes ~node:_ eng tx =
  let inode, _, ik = pick_item p z rng n_nodes in
  read_ eng tx ik;
  (* A few recent bids of that item's shard. *)
  let latest = ref 0 in
  (match Core.Engine.read eng tx (counter_key inode "bid") with
   | Some (Value.Int n) -> latest := n
   | Some _ | None -> ());
  for b = max 0 (!latest - 3) to !latest - 1 do
    read_ eng tx (bid_key inode b)
  done

let body_buy_now_auth _p _z _rng ~n_nodes:_ ~node eng tx =
  read_ eng tx (counter_key node "user")

let body_buy_now p z rng ~n_nodes ~node:_ eng tx =
  let _, _, ik = pick_item p z rng n_nodes in
  read_ eng tx ik

let body_put_bid_auth _p _z _rng ~n_nodes:_ ~node eng tx =
  read_ eng tx (counter_key node "user")

let body_put_bid p z rng ~n_nodes ~node:_ eng tx =
  let _, _, ik = pick_item p z rng n_nodes in
  read_ eng tx ik

let body_put_comment_auth _p _z _rng ~n_nodes:_ ~node eng tx =
  read_ eng tx (counter_key node "user")

let body_put_comment p z rng ~n_nodes ~node eng tx =
  let _, _, ik = pick_item p z rng n_nodes in
  read_ eng tx ik;
  read_ eng tx (user_key node (Dsim.Rng.int rng p.users_per_node))

let body_sell _p _z _rng ~n_nodes ~node:_ eng tx = read_ eng tx (category_key n_nodes 0)

let body_sell_item_form p _z rng ~n_nodes ~node:_ eng tx =
  for _ = 1 to 3 do
    read_ eng tx (category_key n_nodes (Dsim.Rng.int rng p.categories))
  done

let body_about_me_auth _p _z _rng ~n_nodes:_ ~node eng tx =
  read_ eng tx (counter_key node "user")

let body_about_me p z rng ~n_nodes ~node eng tx =
  read_ eng tx (user_key node (Dsim.Rng.int rng p.users_per_node));
  for _ = 1 to 4 do
    let _, _, ik = pick_item p z rng n_nodes in
    read_ eng tx ik
  done

let body_login p _z rng ~n_nodes ~node:_ eng tx =
  let _, _, uk = pick_user p rng n_nodes in
  read_ eng tx uk

(* Update bodies: the five RUBiS update interactions. *)

let body_register_user p _z rng ~n_nodes:_ ~node eng tx =
  let id = next_id eng tx node "user" in
  Core.Engine.write eng tx (user_key node id)
    (Value.Rec
       [
         ("rating", Value.Int 0);
         ("balance", Value.Int 0);
         ("region", Value.Int (Dsim.Rng.int rng p.regions));
       ])

let body_register_item p _z rng ~n_nodes ~node eng tx =
  let c = Dsim.Rng.int rng p.categories in
  read_ eng tx (category_key n_nodes c);
  let id = next_id eng tx node "item" in
  Core.Engine.write eng tx (item_key node id)
    (Value.Rec
       [
         ("seller", Value.Int (Dsim.Rng.int rng p.users_per_node));
         ("category", Value.Int c);
         ("qty", Value.Int (1 + Dsim.Rng.int rng 10));
         ("max_bid", Value.Int 0);
         ("nb_bids", Value.Int 0);
         ("price", Value.Int (10 + Dsim.Rng.int rng 490));
       ])

let body_store_bid p z rng ~n_nodes ~node eng tx =
  let inode, iid, ik = pick_item p z rng n_nodes in
  (* New bid id from the local shard index (hot local key). *)
  let bid_id = next_id eng tx node "bid" in
  let amount =
    match Core.Engine.read eng tx ik with
    | Some (Value.Rec _ as row) ->
      let best = Value.int (Value.field row "max_bid") in
      let nb = Value.int (Value.field row "nb_bids") in
      let amount = best + 1 + Dsim.Rng.int rng 20 in
      let row = Value.set_field row "max_bid" (Value.Int amount) in
      let row = Value.set_field row "nb_bids" (Value.Int (nb + 1)) in
      Core.Engine.write eng tx ik row;
      amount
    | Some _ | None -> 0
  in
  Core.Engine.write eng tx (bid_key node bid_id)
    (Value.Rec
       [
         ("item_node", Value.Int inode);
         ("item_id", Value.Int iid);
         ("user", Value.Int (Dsim.Rng.int rng p.users_per_node));
         ("amount", Value.Int amount);
       ])

let body_store_comment p z rng ~n_nodes ~node eng tx =
  let _, _, ik = pick_item p z rng n_nodes in
  read_ eng tx ik;
  let unode, uid, uk = pick_user p rng n_nodes in
  let comment_id = next_id eng tx node "comment" in
  let rating = Dsim.Rng.int_range rng ~lo:(-5) ~hi:5 in
  bump_field eng tx uk "rating" rating;
  Core.Engine.write eng tx (comment_key node comment_id)
    (Value.Rec
       [
         ("from", Value.Int (Dsim.Rng.int rng p.users_per_node));
         ("to_node", Value.Int unode);
         ("to_id", Value.Int uid);
         ("rating", Value.Int rating);
       ])

let body_store_buy_now p z rng ~n_nodes ~node eng tx =
  let inode, iid, ik = pick_item p z rng n_nodes in
  let qty = 1 + Dsim.Rng.int rng 3 in
  update_row eng tx ik (fun row ->
      let have = Value.int (Value.field row "qty") in
      Value.set_field row "qty" (Value.Int (max 0 (have - qty))));
  let id = next_id eng tx node "buynow" in
  Core.Engine.write eng tx (buynow_key node id)
    (Value.Rec
       [
         ("item_node", Value.Int inode);
         ("item_id", Value.Int iid);
         ("user", Value.Int (Dsim.Rng.int rng p.users_per_node));
         ("qty", Value.Int qty);
       ])

(** The full RUBiS interaction table: 26 types, 5 updates.  Weights
    follow the default RUBiS 15% update ("bidding") mix: the update
    interactions sum to 15%, browsing to 85%. *)
let interactions : interaction list =
  [
    { name = "Home"; weight = 5.0; update = false; make_body = body_home };
    { name = "Browse"; weight = 4.0; update = false; make_body = body_browse };
    { name = "BrowseCategories"; weight = 5.0; update = false; make_body = body_browse_categories };
    { name = "SearchItemsInCategory"; weight = 12.0; update = false;
      make_body = body_search_items_in_category };
    { name = "BrowseRegions"; weight = 3.0; update = false; make_body = body_browse_regions };
    { name = "BrowseCategoriesInRegion"; weight = 3.0; update = false;
      make_body = body_browse_categories_in_region };
    { name = "SearchItemsInRegion"; weight = 5.0; update = false;
      make_body = body_search_items_in_region };
    { name = "ViewItem"; weight = 16.0; update = false; make_body = body_view_item };
    { name = "ViewUserInfo"; weight = 4.0; update = false; make_body = body_view_user_info };
    { name = "ViewBidHistory"; weight = 4.0; update = false; make_body = body_view_bid_history };
    { name = "BuyNowAuth"; weight = 1.5; update = false; make_body = body_buy_now_auth };
    { name = "BuyNow"; weight = 2.0; update = false; make_body = body_buy_now };
    { name = "PutBidAuth"; weight = 3.0; update = false; make_body = body_put_bid_auth };
    { name = "PutBid"; weight = 5.0; update = false; make_body = body_put_bid };
    { name = "PutCommentAuth"; weight = 1.0; update = false; make_body = body_put_comment_auth };
    { name = "PutComment"; weight = 1.5; update = false; make_body = body_put_comment };
    { name = "Sell"; weight = 1.0; update = false; make_body = body_sell };
    { name = "SellItemForm"; weight = 1.0; update = false; make_body = body_sell_item_form };
    { name = "AboutMeAuth"; weight = 1.0; update = false; make_body = body_about_me_auth };
    { name = "AboutMe"; weight = 3.0; update = false; make_body = body_about_me };
    { name = "Login"; weight = 4.0; update = false; make_body = body_login };
    (* updates: 15% total *)
    { name = "RegisterUser"; weight = 2.0; update = true; make_body = body_register_user };
    { name = "RegisterItem"; weight = 2.0; update = true; make_body = body_register_item };
    { name = "StoreBid"; weight = 6.5; update = true; make_body = body_store_bid };
    { name = "StoreComment"; weight = 2.0; update = true; make_body = body_store_comment };
    { name = "StoreBuyNow"; weight = 2.5; update = true; make_body = body_store_buy_now };
  ]

let interaction_count = List.length interactions

let update_fraction =
  let total = List.fold_left (fun a i -> a +. i.weight) 0. interactions in
  let upd =
    List.fold_left (fun a i -> if i.update then a +. i.weight else a) 0. interactions
  in
  upd /. total

let think p rng = Dsim.Rng.int_range rng ~lo:p.think_min_us ~hi:p.think_max_us

let make ?(params = default) placement =
  let n_nodes = Placement.n_nodes placement in
  let zipf = Zipf.make ~n:params.items_per_node ~theta:params.item_skew_theta in
  let total_weight = List.fold_left (fun a i -> a +. i.weight) 0. interactions in
  let next_program rng ~node =
    let u = Dsim.Rng.float rng *. total_weight in
    let rec pick acc = function
      | [] -> List.hd interactions
      | i :: rest -> if u < acc +. i.weight then i else pick (acc +. i.weight) rest
    in
    let i = pick 0. interactions in
    (* A per-transaction seed makes retries replay exactly the same
       random choices: an aborted transaction is re-executed, not
       re-rolled. *)
    let seed = Dsim.Rng.next rng in
    {
      Spec.label = i.name;
      read_only = not i.update;
      think_us = think params rng;
      body =
        (fun eng tx ->
          let txrng = Dsim.Rng.create ~seed in
          i.make_body params zipf txrng ~n_nodes ~node eng tx);
    }
  in
  { Spec.name = "rubis"; load = load params n_nodes; next_program }

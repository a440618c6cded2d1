(** TPC-C benchmark substrate (§6.2 of the paper).

    The paper's TPC-C workload uses three representative transactions:

    - {b payment} — very high local contention (warehouse and district
      YTD rows are hot on the home node), low remote contention (15% of
      payments touch a customer of a remote warehouse);
    - {b new-order} — low local contention, high remote contention (1%
      of order lines are supplied by a remote warehouse's stock);
    - {b order-status} — read-only.

    Each node is the master of [warehouses_per_node] warehouses (the
    paper populates five per server); a warehouse's rows live in its
    home node's partition.  Rows are encoded as {!Store.Keyspace.Value}
    records; item price is stored denormalized in the stock row (the
    TPC-C item table is read-only and effectively replicated in real
    deployments). *)

open Store
module Key = Keyspace.Key
module Value = Keyspace.Value

type params = {
  warehouses_per_node : int;
  districts : int;
  customers_per_district : int;
  items : int;
  remote_payment_prob : float;  (** TPC-C spec: 15% *)
  remote_stock_prob : float;  (** TPC-C spec: 1% per order line *)
  think_us : int;  (** mean think time between transactions *)
}

let default =
  {
    warehouses_per_node = 5;
    districts = 10;
    customers_per_district = 100;
    items = 1000;
    remote_payment_prob = 0.15;
    remote_stock_prob = 0.01;
    think_us = 2_000_000;
  }

(** Transaction mixes.  The paper's workloads use the three
    representative transactions (new-order / payment / order-status);
    [mix_full] adds the remaining two standard TPC-C transactions
    (delivery and stock-level) in spec-like proportions. *)
type mix = {
  new_order : float;
  payment : float;
  order_status : float;
  delivery : float;
  stock_level : float;
}

let mix3 new_order payment order_status =
  { new_order; payment; order_status; delivery = 0.; stock_level = 0. }

let mix_a = mix3 0.05 0.83 0.12
let mix_b = mix3 0.45 0.43 0.12
let mix_c = mix3 0.05 0.43 0.52

let mix_full =
  { new_order = 0.45; payment = 0.43; order_status = 0.04; delivery = 0.04; stock_level = 0.04 }

(* ---- key schema ---- *)

let node_of_warehouse p w = w / p.warehouses_per_node

let warehouse_key p w = Key.v ~partition:(node_of_warehouse p w) ("w/" ^ string_of_int w)

let district_key p w d =
  Key.v ~partition:(node_of_warehouse p w)
    (String.concat "/" [ "d"; string_of_int w; string_of_int d ])

let customer_key p w d c =
  Key.v ~partition:(node_of_warehouse p w)
    (String.concat "/" [ "c"; string_of_int w; string_of_int d; string_of_int c ])

let order_key p w d o =
  Key.v ~partition:(node_of_warehouse p w)
    (String.concat "/" [ "o"; string_of_int w; string_of_int d; string_of_int o ])

let order_line_key p w d o n =
  Key.v ~partition:(node_of_warehouse p w)
    (String.concat "/" [ "ol"; string_of_int w; string_of_int d; string_of_int o; string_of_int n ])

let stock_key p w i =
  Key.v ~partition:(node_of_warehouse p w)
    (String.concat "/" [ "s"; string_of_int w; string_of_int i ])

(** Next order id awaiting delivery, per district (stands in for the
    NEW-ORDER table of the full schema). *)
let delivery_cursor_key p w d =
  Key.v ~partition:(node_of_warehouse p w)
    (String.concat "/" [ "dc"; string_of_int w; string_of_int d ])

(* ---- dataset ---- *)

let load p n_nodes eng =
  for node = 0 to n_nodes - 1 do
    for wi = 0 to p.warehouses_per_node - 1 do
      let w = (node * p.warehouses_per_node) + wi in
      Core.Engine.load eng (warehouse_key p w) (Value.Rec [ ("ytd", Value.Int 0) ]);
      for d = 0 to p.districts - 1 do
        Core.Engine.load eng (district_key p w d)
          (Value.Rec [ ("ytd", Value.Int 0); ("next_o_id", Value.Int 1) ]);
        Core.Engine.load eng (delivery_cursor_key p w d) (Value.Int 1);
        for c = 0 to p.customers_per_district - 1 do
          Core.Engine.load eng (customer_key p w d c)
            (Value.Rec
               [
                 ("balance", Value.Int 0);
                 ("payment_cnt", Value.Int 0);
                 ("last_order", Value.Int (-1));
               ])
        done
      done;
      for i = 0 to p.items - 1 do
        Core.Engine.load eng (stock_key p w i)
          (Value.Rec
             [
               ("qty", Value.Int 10_000);
               ("ytd", Value.Int 0);
               ("price", Value.Int (100 + ((w + i) mod 900)));
             ])
      done
    done
  done

(* ---- transaction bodies ---- *)

(** Observable anomaly counters: under SI/SPSI [null_order_lines] stays
    zero; a protocol admitting the Listing-1 anomaly (reading an order
    without its order lines) would increment it. *)
type counters = { mutable null_order_lines : int; mutable orders_checked : int }

let local_warehouse p rng node =
  (node * p.warehouses_per_node) + Dsim.Rng.int rng p.warehouses_per_node

let remote_warehouse p rng n_nodes node =
  if n_nodes <= 1 then local_warehouse p rng node
  else begin
    let other = (node + 1 + Dsim.Rng.int rng (n_nodes - 1)) mod n_nodes in
    (other * p.warehouses_per_node) + Dsim.Rng.int rng p.warehouses_per_node
  end

let payment p rng n_nodes node =
  let w = local_warehouse p rng node in
  let d = Dsim.Rng.int rng p.districts in
  let cw =
    if Dsim.Rng.float rng < p.remote_payment_prob then remote_warehouse p rng n_nodes node
    else w
  in
  let cd = Dsim.Rng.int rng p.districts in
  let c = Dsim.Rng.int rng p.customers_per_district in
  let amount = 1 + Dsim.Rng.int rng 5000 in
  fun eng tx ->
    let bump key field delta =
      match Core.Engine.read eng tx key with
      | Some (Value.Rec _ as row) ->
        let v = Value.int (Value.field row field) in
        Core.Engine.write eng tx key (Value.set_field row field (Value.Int (v + delta)))
      | Some _ | None -> ()
    in
    bump (warehouse_key p w) "ytd" amount;
    bump (district_key p w d) "ytd" amount;
    (match Core.Engine.read eng tx (customer_key p cw cd c) with
     | Some (Value.Rec _ as row) ->
       let bal = Value.int (Value.field row "balance") in
       let cnt = Value.int (Value.field row "payment_cnt") in
       let row = Value.set_field row "balance" (Value.Int (bal - amount)) in
       let row = Value.set_field row "payment_cnt" (Value.Int (cnt + 1)) in
       Core.Engine.write eng tx (customer_key p cw cd c) row
     | Some _ | None -> ())

let new_order p rng n_nodes node =
  let w = local_warehouse p rng node in
  let d = Dsim.Rng.int rng p.districts in
  let c = Dsim.Rng.int rng p.customers_per_district in
  let ol_cnt = 5 + Dsim.Rng.int rng 11 in
  let lines =
    List.init ol_cnt (fun _ ->
        let supply_w =
          if Dsim.Rng.float rng < p.remote_stock_prob then
            remote_warehouse p rng n_nodes node
          else w
        in
        let item = Dsim.Rng.int rng p.items in
        let qty = 1 + Dsim.Rng.int rng 10 in
        (supply_w, item, qty))
  in
  fun eng tx ->
    (* Fetch and advance the district's order counter. *)
    let dk = district_key p w d in
    let oid =
      match Core.Engine.read eng tx dk with
      | Some (Value.Rec _ as row) ->
        let oid = Value.int (Value.field row "next_o_id") in
        Core.Engine.write eng tx dk
          (Value.set_field row "next_o_id" (Value.Int (oid + 1)));
        oid
      | Some _ | None -> 0
    in
    Core.Engine.write eng tx (order_key p w d oid)
      (Value.Rec [ ("c_id", Value.Int c); ("ol_cnt", Value.Int ol_cnt) ]);
    List.iteri
      (fun n (supply_w, item, qty) ->
        let sk = stock_key p supply_w item in
        let amount =
          match Core.Engine.read eng tx sk with
          | Some (Value.Rec _ as row) ->
            let sq = Value.int (Value.field row "qty") in
            let sy = Value.int (Value.field row "ytd") in
            let price = Value.int (Value.field row "price") in
            let sq = if sq - qty < 10 then sq - qty + 91 else sq - qty in
            let row = Value.set_field row "qty" (Value.Int sq) in
            let row = Value.set_field row "ytd" (Value.Int (sy + qty)) in
            Core.Engine.write eng tx sk row;
            price * qty
          | Some _ | None -> 0
        in
        Core.Engine.write eng tx
          (order_line_key p w d oid n)
          (Value.Rec
             [ ("item", Value.Int item); ("qty", Value.Int qty); ("amount", Value.Int amount) ]))
      lines;
    (* Track the customer's most recent order for order-status. *)
    let ck = customer_key p w d c in
    match Core.Engine.read eng tx ck with
    | Some (Value.Rec _ as row) ->
      Core.Engine.write eng tx ck (Value.set_field row "last_order" (Value.Int oid))
    | Some _ | None -> ()

let order_status p rng counters node =
  let w = local_warehouse p rng node in
  let d = Dsim.Rng.int rng p.districts in
  let c = Dsim.Rng.int rng p.customers_per_district in
  fun eng tx ->
    match Core.Engine.read eng tx (customer_key p w d c) with
    | Some (Value.Rec _ as row) ->
      let last = Value.int (Value.field row "last_order") in
      if last >= 0 then begin
        match Core.Engine.read eng tx (order_key p w d last) with
        | Some (Value.Rec _ as order) ->
          counters.orders_checked <- counters.orders_checked + 1;
          let ol_cnt = Value.int (Value.field order "ol_cnt") in
          for n = 0 to ol_cnt - 1 do
            match Core.Engine.read eng tx (order_line_key p w d last n) with
            | Some _ -> ()
            | None ->
              (* The Listing-1 anomaly: an order without its lines. *)
              counters.null_order_lines <- counters.null_order_lines + 1
          done
        | Some _ | None -> ()
      end
    | Some _ | None -> ()

let read_next_o_id eng tx dk =
  match Core.Engine.read eng tx dk with
  | Some (Value.Rec _ as row) -> Value.int (Value.field row "next_o_id")
  | Some _ | None -> 1

(** Delivery: advance each district's delivery cursor past its oldest
    undelivered order, stamping the order with a carrier and crediting
    the customer with the order's total (TPC-C §2.7, batched over the
    warehouse's districts). *)
let delivery p rng node =
  let w = local_warehouse p rng node in
  let carrier = 1 + Dsim.Rng.int rng 10 in
  fun eng tx ->
    for d = 0 to p.districts - 1 do
      let ck = delivery_cursor_key p w d in
      let next = Spec.read_int ~default:1 eng tx ck in
      match Core.Engine.read eng tx (order_key p w d next) with
      | Some (Value.Rec _ as order) when Value.field_opt order "carrier" = None ->
        Core.Engine.write eng tx (order_key p w d next)
          (Value.set_field order "carrier" (Value.Int carrier));
        Core.Engine.write eng tx ck (Value.Int (next + 1));
        let ol_cnt = Value.int (Value.field order "ol_cnt") in
        let total = ref 0 in
        for n = 0 to ol_cnt - 1 do
          match Core.Engine.read eng tx (order_line_key p w d next n) with
          | Some (Value.Rec _ as ol) -> total := !total + Value.int (Value.field ol "amount")
          | Some _ | None -> ()
        done;
        let c = Value.int (Value.field order "c_id") in
        let custk = customer_key p w d c in
        (match Core.Engine.read eng tx custk with
         | Some (Value.Rec _ as row) ->
           let bal = Value.int (Value.field row "balance") in
           Core.Engine.write eng tx custk
             (Value.set_field row "balance" (Value.Int (bal + !total)))
         | Some _ | None -> ())
      | Some _ | None -> () (* nothing to deliver in this district *)
    done

(** Stock-level (read-only): how many distinct items of the district's
    recent orders have stock below the threshold (TPC-C §2.8; we scan
    the last [recent] orders instead of 20 to keep transactions
    simulator-sized). *)
let stock_level ?(recent = 5) p rng node =
  let w = local_warehouse p rng node in
  let d = Dsim.Rng.int rng p.districts in
  let threshold = 10 + Dsim.Rng.int rng 11 in
  fun eng tx ->
    let next_o = read_next_o_id eng tx (district_key p w d) in
    let low = ref 0 in
    for o = max 1 (next_o - recent) to next_o - 1 do
      match Core.Engine.read eng tx (order_key p w d o) with
      | Some (Value.Rec _ as order) ->
        let ol_cnt = Value.int (Value.field order "ol_cnt") in
        for n = 0 to ol_cnt - 1 do
          match Core.Engine.read eng tx (order_line_key p w d o n) with
          | Some (Value.Rec _ as ol) ->
            let item = Value.int (Value.field ol "item") in
            (match Core.Engine.read eng tx (stock_key p w item) with
             | Some (Value.Rec _ as s) ->
               if Value.int (Value.field s "qty") < threshold then incr low
             | Some _ | None -> ())
          | Some _ | None -> ()
        done
      | Some _ | None -> ()
    done;
    ignore !low

(* ---- workload assembly ---- *)

let think p rng =
  (* Uniform in [0.5, 1.5] x mean, mirroring TPC-C's several-second
     keying+think times without heavy tails. *)
  let f = 0.5 +. Dsim.Rng.float rng in
  int_of_float (f *. float_of_int p.think_us)

let make ?(params = default) ?(mix = mix_a) placement =
  let n_nodes = Placement.n_nodes placement in
  let counters = { null_order_lines = 0; orders_checked = 0 } in
  let next_program rng ~node =
    let u = Dsim.Rng.float rng in
    (* Parameters are drawn here, once: a client that retries an aborted
       transaction re-executes the same logical transaction. *)
    if u < mix.new_order then
      {
        Spec.label = "new-order";
        read_only = false;
        think_us = think params rng;
        body = new_order params rng n_nodes node;
      }
    else if u < mix.new_order +. mix.payment then
      {
        Spec.label = "payment";
        read_only = false;
        think_us = think params rng;
        body = payment params rng n_nodes node;
      }
    else if u < mix.new_order +. mix.payment +. mix.order_status then
      {
        Spec.label = "order-status";
        read_only = true;
        think_us = think params rng;
        body = order_status params rng counters node;
      }
    else if u < mix.new_order +. mix.payment +. mix.order_status +. mix.delivery then
      {
        Spec.label = "delivery";
        read_only = false;
        think_us = think params rng;
        body = delivery params rng node;
      }
    else
      {
        Spec.label = "stock-level";
        read_only = true;
        think_us = think params rng;
        body = stock_level params rng node;
      }
  in
  ( { Spec.name = "tpcc"; load = load params n_nodes; next_program }, counters )

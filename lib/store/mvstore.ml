(** Multi-versioned storage of one partition replica.

    Besides the version chains, the store tracks per-key [LastReader]
    timestamps — the read snapshot of the most recent reader — which is
    the metadata that powers the Precise Clocks timestamping rule
    (§5.3 of the paper).  [LastReader] is tracked at every replica that
    serves reads (masters and slaves alike).  It lives in the key's
    chain record, so a read looks its key up once.  A key read before
    its first write gets an {e orphan} chain: an empty chain that holds
    only the [LastReader] and that every view of the store's keys
    ([chain_opt], [key_count], [storage_bytes], [fingerprint]) treats
    as absent, until {!chain} adopts it as the key's chain.

    Storage accounting is incremental: key and version byte counts are
    maintained on every insert/remove/prune, so {!storage_bytes} (and
    hence the metrics sampler) is O(1) instead of walking every version
    of every chain.  Multi-version GC visits only the chains holding at
    least two versions (a single version is never dropped), kept in the
    prune list. *)

module Key = Keyspace.Key

module KeyTbl = Hashtbl.Make (struct
  type t = Key.t
  let equal = Key.equal
  let hash = Key.hash
end)

(* Byte-cost model of the §6.1 storage accounting: container overhead
   per key and per stored version, plus the payload sizes. *)
let key_overhead_bytes = 24
let version_overhead_bytes = 16
let last_reader_slot_bytes = 24 (* 8-byte timestamp + hash-bucket overhead *)

let version_bytes (v : Version.t) =
  version_overhead_bytes + Keyspace.Value.size_bytes v.value

type t = {
  chains : Chain.t KeyTbl.t;  (** every key's chain, orphans included *)
  (* lint: allow fingerprint-coverage — derived tally of the chains,
     cross-checked by check_accounting *)
  mutable orphans : int;  (** orphan chains in [chains] *)
  (* lint: allow fingerprint-coverage — stat counter *)
  mutable reads_served : int;
  (* lint: allow fingerprint-coverage — stat counter *)
  mutable versions_pruned : int;
  (* --- incremental accounting --- *)
  (* lint: allow fingerprint-coverage — derived tally of the chains,
     cross-checked by check_accounting *)
  mutable version_count : int;
  (* lint: allow fingerprint-coverage — derived tally of the chains,
     cross-checked by check_accounting *)
  mutable data_bytes : int;  (** keys + stored versions, kept in sync *)
  (* lint: allow fingerprint-coverage — derived tally of the LastReader
     values, cross-checked by check_accounting *)
  mutable lr_keys : int;  (** keys with a [LastReader] (> 0), orphans included *)
  (* --- prune list --- *)
  (* lint: allow fingerprint-coverage — index of the chains with >= 2
     versions, cross-checked by check_accounting *)
  mutable multi : Chain.t array;
      (** [multi.(i)] for [i < multi_len] are exactly the chains with
          at least two versions; each knows its index ({!Chain.slot}) *)
  (* lint: allow fingerprint-coverage — length of that index *)
  mutable multi_len : int;
  (* --- fingerprint support --- *)
  mutable sorted_keys : Key.t array;
      (** every key owning a chain, sorted; invalidated on new-key
          insert (keys are never removed) *)
  (* lint: allow fingerprint-coverage — cache-validity bit for
     sorted_keys, which the fingerprint recomputes deterministically *)
  mutable sorted_keys_valid : bool;
}

let create () =
  {
    chains = KeyTbl.create 4096;
    orphans = 0;
    reads_served = 0;
    versions_pruned = 0;
    version_count = 0;
    data_bytes = 0;
    lr_keys = 0;
    multi = [||];
    multi_len = 0;
    sorted_keys = [||];
    sorted_keys_valid = false;
  }

(* The store's word in a chain ({!Chain.slot}): the chain's index in
   the prune list, [unlisted], or [orphan] while the key has only been
   read. *)
let unlisted = -1
let orphan = -2
let is_orphan c = Chain.slot c = orphan

let add_key t key =
  t.data_bytes <- t.data_bytes + key_overhead_bytes + String.length (Key.name key);
  t.sorted_keys_valid <- false

(* [find_opt], not [find]: a miss, the common case while loading, would
   raise. *)
let chain t key =
  match KeyTbl.find_opt t.chains key with
  | Some c ->
    if is_orphan c then begin
      Chain.set_slot c unlisted;
      t.orphans <- t.orphans - 1;
      add_key t key
    end;
    c
  | None ->
    let c = Chain.create () in
    KeyTbl.add t.chains key c;
    add_key t key;
    c

let chain_opt t key =
  match KeyTbl.find t.chains key with
  | c when not (is_orphan c) -> Some c
  | _ | (exception Not_found) -> None

let key_count t = KeyTbl.length t.chains - t.orphans

let version_count t = t.version_count

(* Prune-list upkeep after a chain's length changed. *)
let relist t c =
  let n = Chain.length c and i = Chain.slot c in
  if n >= 2 && i < 0 then begin
    if t.multi_len = Array.length t.multi then begin
      let a = Array.make (max 16 (2 * t.multi_len)) c in
      Array.blit t.multi 0 a 0 t.multi_len;
      t.multi <- a
    end;
    t.multi.(t.multi_len) <- c;
    Chain.set_slot c t.multi_len;
    t.multi_len <- t.multi_len + 1
  end
  else if n < 2 && i >= 0 then begin
    (* Swap the last listed chain into the vacated slot. *)
    let last = t.multi_len - 1 in
    let d = t.multi.(last) in
    t.multi.(i) <- d;
    Chain.set_slot d i;
    t.multi_len <- last;
    Chain.set_slot c unlisted
  end

let insert_into t c v =
  Chain.insert c v;
  t.version_count <- t.version_count + 1;
  t.data_bytes <- t.data_bytes + version_bytes v;
  relist t c

let account_remove t (v : Version.t) =
  t.version_count <- t.version_count - 1;
  t.data_bytes <- t.data_bytes - version_bytes v

(** Initial load, bypassing the protocol: installs a committed version
    at timestamp [ts] (default 0). *)
let load t ?(ts = 0) ~writer key value =
  insert_into t (chain t key) (Version.make ~writer ~state:Version.Committed ~ts ~value)

let insert_version t key v = insert_into t (chain t key) v

let last_reader t key =
  match KeyTbl.find t.chains key with
  | c -> Chain.last_reader c
  | exception Not_found -> 0

(* Raise a key's LastReader to [rs].  A key gets its first LastReader
   when [rs] exceeds the initial 0; a key without a chain then gets an
   orphan one to hold it. *)
let raise_in t c rs =
  let cur = Chain.last_reader c in
  if rs > cur then begin
    if cur = 0 then t.lr_keys <- t.lr_keys + 1;
    Chain.set_last_reader c rs
  end

let raise_new t key rs =
  if rs > 0 then begin
    let c = Chain.create () in
    Chain.set_slot c orphan;
    Chain.set_last_reader c rs;
    KeyTbl.add t.chains key c;
    t.orphans <- t.orphans + 1;
    t.lr_keys <- t.lr_keys + 1
  end

let bump_last_reader t key rs =
  t.reads_served <- t.reads_served + 1;
  match KeyTbl.find t.chains key with
  | c -> raise_in t c rs
  | exception Not_found -> raise_new t key rs

let read_at t key ~rs =
  t.reads_served <- t.reads_served + 1;
  match KeyTbl.find t.chains key with
  | c ->
    raise_in t c rs;
    Chain.latest_before c ~rs
  | exception Not_found ->
    raise_new t key rs;
    None

(* Orphan chains are empty, so the two lookups below need not tell them
   apart. *)

(** Latest version visible at read snapshot [rs] (any state); does not
    bump [LastReader] — {!read_at} does both. *)
let latest_before t key ~rs =
  match KeyTbl.find t.chains key with
  | c -> Chain.latest_before c ~rs
  | exception Not_found -> None

let find_version t key txid =
  match KeyTbl.find t.chains key with
  | c -> Chain.find_writer c txid
  | exception Not_found -> None

let remove_from t c txid =
  match Chain.remove_writer c txid with
  | None -> ()
  | Some v ->
    account_remove t v;
    relist t c

(** Multi-version GC over the prune list.  Listed chains are visited
    last slot first, so a chain that leaves the list swaps in one that
    was already visited. *)
let prune t ~horizon =
  let dropped = ref 0 in
  let on_drop v = account_remove t v in
  for i = t.multi_len - 1 downto 0 do
    let c = t.multi.(i) in
    dropped := !dropped + Chain.prune ~on_drop c ~horizon;
    relist t c
  done;
  t.versions_pruned <- t.versions_pruned + !dropped;
  !dropped

let reads_served t = t.reads_served

(** Storage accounting for the Precise Clocks overhead measurement:
    [data_bytes] approximates the size of keys plus stored versions;
    [last_reader_bytes] is the extra metadata Precise Clocks maintains —
    a timestamp slot (plus container overhead) for every key of the
    replica, since in steady state every live key has been read.  O(1):
    both sides are maintained incrementally. *)
let storage_bytes t =
  (t.data_bytes, last_reader_slot_bytes * max (key_count t) t.lr_keys)

(** Recompute the derived state by walking every chain and compare it
    against the incremental counters and the prune list (test and
    benchmark-gate support: the differential oracle for the O(1) fast
    paths). *)
let check_accounting t =
  let data = ref 0 and versions = ref 0 and lr = ref 0 and multi = ref 0 in
  let orphans = ref 0 in
  let err = ref None in
  let fail msg = if Option.is_none !err then err := Some msg in
  (* lint: allow hashtbl-order — sums and per-chain checks are
     order-insensitive; order only picks which error surfaces first *)
  KeyTbl.iter
    (fun key c ->
      if is_orphan c then begin
        incr orphans;
        if Chain.length c > 0 || Chain.last_reader c <= 0 then
          fail
            (Printf.sprintf "%s: orphan chain with %d versions and LastReader %d"
               (Key.to_string key) (Chain.length c) (Chain.last_reader c))
      end
      else data := !data + key_overhead_bytes + String.length (Key.name key);
      data :=
        Chain.fold_newest
          (fun acc v ->
            incr versions;
            acc + version_bytes v)
          !data c;
      if Chain.last_reader c > 0 then incr lr;
      let i = Chain.slot c in
      if Chain.length c >= 2 then begin
        incr multi;
        if i < 0 || i >= t.multi_len || t.multi.(i) != c then
          fail (Printf.sprintf "%s: chain of %d versions missing from the prune list"
                  (Key.to_string key) (Chain.length c))
      end
      else if i >= 0 then
        fail (Printf.sprintf "%s: chain of %d versions listed for pruning"
                (Key.to_string key) (Chain.length c)))
    t.chains;
  if !data <> t.data_bytes then
    Error
      (Printf.sprintf "data_bytes drifted: counter %d, recomputed %d" t.data_bytes
         !data)
  else if !versions <> t.version_count then
    Error
      (Printf.sprintf "version_count drifted: counter %d, recomputed %d"
         t.version_count !versions)
  else if !lr <> t.lr_keys then
    Error
      (Printf.sprintf "LastReader key count drifted: counter %d, recomputed %d"
         t.lr_keys !lr)
  else if !orphans <> t.orphans then
    Error
      (Printf.sprintf "orphan count drifted: counter %d, recomputed %d" t.orphans
         !orphans)
  else if !multi <> t.multi_len then
    Error
      (Printf.sprintf "prune list holds %d chains, %d have two or more versions"
         t.multi_len !multi)
  else match !err with Some e -> Error e | None -> Ok ()

(** Run the chain invariant checker over every key. *)
let check_invariants t =
  (* lint: allow hashtbl-order — all chains must pass; order only picks
     which error message surfaces first *)
  KeyTbl.fold
    (fun key c acc ->
      match acc with
      | Error _ -> acc
      | Ok () ->
        (match Chain.check_invariants c with
         | Ok () -> Ok ()
         | Error e -> Error (Printf.sprintf "%s: %s" (Key.to_string key) e)))
    t.chains (Ok ())

(* ------------------------------------------------------------------ *)
(* State fingerprinting (model-checker support)                        *)
(* ------------------------------------------------------------------ *)

(* FNV-1a-style mixing over native ints; quality is ample for the
   model checker's visited-state dedup (collisions only cost a pruned
   branch, never a false violation). *)
let mix h x = (h lxor x) * 0x100000001b3

let mix_string h s =
  let h = ref (mix h (String.length s)) in
  String.iter (fun c -> h := mix !h (Char.code c)) s;
  !h

let sorted_keys t =
  if not t.sorted_keys_valid then begin
    let ks =
      (* lint: allow hashtbl-order — keys are sorted before use *)
      KeyTbl.fold (fun k c acc -> if is_orphan c then acc else k :: acc) t.chains []
      |> List.sort Key.compare
    in
    t.sorted_keys <- Array.of_list ks;
    t.sorted_keys_valid <- true
  end;
  t.sorted_keys

(** Order-independent structural hash of the full replica state —
    version chains (writer, state, timestamp per version) and the
    [LastReader] table.  The sorted key list is cached (keys are only
    ever added), so repeated fingerprints avoid the sort; versions are
    mixed newest-first via the allocation-free chain fold. *)
let fingerprint t =
  Array.fold_left
    (fun h key ->
      let c = KeyTbl.find t.chains key in
      let h = mix_string (mix h (Key.partition key)) (Key.name key) in
      let h = mix h (Chain.last_reader c) in
      Chain.fold_newest
        (fun h (v : Version.t) ->
          let h = mix h (Txid.origin v.writer) in
          let h = mix h (Txid.number v.writer) in
          let h =
            mix h
              (match v.state with
               | Version.Pre_committed -> 1
               | Version.Local_committed -> 2
               | Version.Committed -> 3)
          in
          mix h v.ts)
        h c)
    0x811c9dc5 (sorted_keys t)

(* ------------------------------------------------------------------ *)
(* Recovery state transfer                                             *)
(* ------------------------------------------------------------------ *)

(** Every committed version as [(key, version)] — keys ascending,
    versions oldest-first within a key.  The deterministic iteration
    order recovery catch-up relies on (a replica that missed decisions
    while crashed copies the committed state of a live peer). *)
let committed_versions t =
  let keys = sorted_keys t in
  let acc = ref [] in
  for i = Array.length keys - 1 downto 0 do
    let key = keys.(i) in
    match KeyTbl.find_opt t.chains key with
    | None -> ()
    | Some c ->
      (* [fold_newest] visits newest-first; consing onto the shared
         accumulator leaves each key's versions oldest-first. *)
      acc :=
        Chain.fold_newest
          (fun l v -> if Version.is_committed v then (key, v) :: l else l)
          !acc c
  done;
  !acc

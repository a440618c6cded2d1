(** Multi-versioned storage of one partition replica.

    Besides the version chains, the store tracks per-key [LastReader]
    timestamps — the read snapshot of the most recent reader — which is
    the metadata that powers the Precise Clocks timestamping rule
    (§5.3 of the paper).  [LastReader] is tracked at every replica that
    serves reads (masters and slaves alike).

    Storage accounting is incremental: key and version byte counts are
    maintained on every insert/remove/prune, so {!storage_bytes} (and
    hence the metrics sampler) is O(1) instead of walking every version
    of every chain. *)

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
  chains : Chain.t KeyTbl.t;
  last_reader : int KeyTbl.t;
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
    last_reader = KeyTbl.create 4096;
    reads_served = 0;
    versions_pruned = 0;
    version_count = 0;
    data_bytes = 0;
    sorted_keys = [||];
    sorted_keys_valid = false;
  }

let chain t key =
  match KeyTbl.find_opt t.chains key with
  | Some c -> c
  | None ->
    let c = Chain.create () in
    KeyTbl.add t.chains key c;
    t.data_bytes <- t.data_bytes + key_overhead_bytes + String.length (Key.name key);
    t.sorted_keys_valid <- false;
    c

let chain_opt t key = KeyTbl.find_opt t.chains key

let key_count t = KeyTbl.length t.chains

let version_count t = t.version_count

let account_insert t (v : Version.t) =
  t.version_count <- t.version_count + 1;
  t.data_bytes <- t.data_bytes + version_bytes v

let account_remove t (v : Version.t) =
  t.version_count <- t.version_count - 1;
  t.data_bytes <- t.data_bytes - version_bytes v

(** Initial load, bypassing the protocol: installs a committed version
    at timestamp [ts] (default 0). *)
let load t ?(ts = 0) ~writer key value =
  let v = Version.make ~writer ~state:Version.Committed ~ts ~value in
  Chain.insert (chain t key) v;
  account_insert t v

let last_reader t key =
  match KeyTbl.find_opt t.last_reader key with Some ts -> ts | None -> 0

let bump_last_reader t key rs =
  t.reads_served <- t.reads_served + 1;
  let cur = last_reader t key in
  if rs > cur then KeyTbl.replace t.last_reader key rs

(** Latest version visible at read snapshot [rs] (any state); does not
    bump [LastReader] — the partition server does that explicitly. *)
let latest_before t key ~rs =
  match chain_opt t key with None -> None | Some c -> Chain.latest_before c ~rs

let latest_committed_before t key ~rs =
  match chain_opt t key with
  | None -> None
  | Some c -> Chain.latest_committed_before c ~rs

let newest_committed t key =
  match chain_opt t key with None -> None | Some c -> Chain.newest_committed c

let insert_into t c v =
  Chain.insert c v;
  account_insert t v

let insert_version t key v = insert_into t (chain t key) v

let find_version t key txid =
  match chain_opt t key with None -> None | Some c -> Chain.find_writer c txid

let remove_version t key txid =
  match chain_opt t key with
  | None -> ()
  | Some c ->
    (match Chain.remove_writer c txid with
     | None -> ()
     | Some v -> account_remove t v)

let reposition t key v =
  match chain_opt t key with None -> () | Some c -> Chain.reposition c v

(** Uncommitted versions currently stacked on [key]. *)
let uncommitted t key =
  match chain_opt t key with None -> [] | Some c -> Chain.uncommitted c

let prune t ~horizon =
  let dropped = ref 0 in
  let on_drop v = account_remove t v in
  (* lint: allow hashtbl-order — summing a count is order-insensitive *)
  KeyTbl.iter (fun _ c -> dropped := !dropped + Chain.prune ~on_drop c ~horizon) t.chains;
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
  let last_reader_bytes =
    last_reader_slot_bytes * max (KeyTbl.length t.chains) (KeyTbl.length t.last_reader)
  in
  (t.data_bytes, last_reader_bytes)

(** Recompute the storage accounting by walking every chain and compare
    it against the incremental counters (test support: the differential
    oracle for the O(1) fast path). *)
let check_accounting t =
  let data = ref 0 and versions = ref 0 in
  (* lint: allow hashtbl-order — summing byte counts is order-insensitive *)
  KeyTbl.iter
    (fun key c ->
      data := !data + key_overhead_bytes + String.length (Key.name key);
      data :=
        Chain.fold_newest
          (fun acc v ->
            incr versions;
            acc + version_bytes v)
          !data c)
    t.chains;
  if !data <> t.data_bytes then
    Error
      (Printf.sprintf "data_bytes drifted: counter %d, recomputed %d" t.data_bytes
         !data)
  else if !versions <> t.version_count then
    Error
      (Printf.sprintf "version_count drifted: counter %d, recomputed %d"
         t.version_count !versions)
  else Ok ()

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
      KeyTbl.fold (fun k _ acc -> k :: acc) t.chains []
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
      let h = mix_string (mix h (Key.partition key)) (Key.name key) in
      let h = mix h (last_reader t key) in
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
        h (chain t key))
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

(** Transaction records and lifecycle state shared by the coordinator
    and the partition servers. *)

open Store

(** Why a transaction (attempt) aborted.  The classification feeds the
    abort-rate and misspeculation-rate metrics of the evaluation. *)
type abort_reason =
  | Local_conflict  (** write-write conflict during local certification *)
  | Remote_conflict  (** conflict detected by a remote master (global cert) *)
  | Evicted  (** local speculative state evicted by a remote prepare *)
  | Dependency_aborted  (** cascading abort: a dependee aborted (SPSI-4) *)
  | Snapshot_too_old
      (** a dependee final committed with CT > RS, violating SPSI-1 *)
  | Node_failure
      (** a replica involved in this transaction's certification crashed
          (perfect failure detection, §5.6); the client simply retries *)
  | Prepare_timeout
      (** the coordinator's global-certification timer expired with
          prepares still outstanding (cooperative termination under
          partitions or message loss); presumed abort *)

let abort_reason_to_string = function
  | Local_conflict -> "local-conflict"
  | Remote_conflict -> "remote-conflict"
  | Evicted -> "evicted"
  | Dependency_aborted -> "dependency-aborted"
  | Snapshot_too_old -> "snapshot-too-old"
  | Node_failure -> "node-failure"
  | Prepare_timeout -> "prepare-timeout"

(** Aborts caused by failed speculation (as opposed to plain
    certification conflicts, which occur in non-speculative protocols
    too). *)
let is_misspeculation = function
  | Dependency_aborted | Snapshot_too_old -> true
  | Local_conflict | Remote_conflict | Evicted | Node_failure | Prepare_timeout -> false

(** Map a protocol abort reason onto the closed observability taxonomy.
    Exhaustive by construction: adding an [abort_reason] constructor
    breaks this match at compile time, forcing a taxonomy decision. *)
let taxonomy_of_abort : abort_reason -> Obs.Taxonomy.t = function
  | Local_conflict | Remote_conflict -> Obs.Taxonomy.Ww_conflict
  | Snapshot_too_old -> Obs.Taxonomy.Stale_snapshot
  | Evicted -> Obs.Taxonomy.Spec_misprediction
  | Dependency_aborted -> Obs.Taxonomy.Cascade
  | Node_failure -> Obs.Taxonomy.Partition
  | Prepare_timeout -> Obs.Taxonomy.Timeout

(** Atomic-commitment decision for one global transaction, as logged in
    a coordinator's persistent decision log (write-once; survives the
    coordinator's crash and answers in-doubt status queries). *)
type decision = D_commit of int (* final commit timestamp *) | D_abort

type tx_state =
  | Active  (** executing, before local certification *)
  | Local_committed  (** passed local certification, awaiting global *)
  | Committed
  | Aborted of abort_reason

type outcome = Tx_committed of int (* final commit timestamp *) | Tx_aborted_out of abort_reason

(** Raised by coordinator operations when the transaction has been
    aborted (e.g. by a cascading abort) while the client was executing. *)
exception Tx_abort of abort_reason

module KeyTbl = Mvstore.KeyTbl

type tx = {
  id : Txid.t;
  origin : int;  (** node where the transaction (and its client) live *)
  rs : int;  (** read snapshot (origin-node physical clock at start) *)
  start_time : int;  (** simulated time of this attempt's activation *)
  mutable state : tx_state;
  sr : bool;
      (** speculation mode latched at begin: a transaction observes one
          configuration for its whole lifetime, even if the self-tuner
          flips the global switch mid-flight *)
  (* --- SPSI bookkeeping (Alg. 1) --- *)
  mutable ffc : int;  (** freshest final commit read from, directly or not *)
  (* lint: allow fingerprint-coverage — reaches the fingerprint through
     olc_min; the option only defers allocating the table *)
  mutable olcset : int Txid.Tbl.t option;
      (** oldest-local-commit set: dependee txid -> its oldest unsafe
          ancestor's read snapshot; the sentinel ⟨⊥,∞⟩ is implicit.
          [None] while empty: most attempts never record an entry, so
          the table is created by the first {!olc_put} *)
  mutable unsafe : bool;  (** updated some non-locally-replicated key *)
  (* --- write buffer --- *)
  (* lint: allow fingerprint-coverage — its contents reach the
     fingerprint through the version chains; the option only defers
     allocating the table *)
  mutable wbuf : Keyspace.Value.t KeyTbl.t option;
      (** [None] until the first write (read-only attempts never
          allocate it); accessed through {!buffered}/{!buffer} *)
  (* lint: allow fingerprint-coverage — derived view of wbuf, whose
     contents reach the fingerprint through the version chains *)
  mutable wkeys : Keyspace.Key.t list;  (** reverse insertion order *)
  (* lint: allow fingerprint-coverage — cached length of wkeys *)
  mutable n_wkeys : int;  (** [List.length wkeys], maintained on insert *)
  (* lint: allow fingerprint-coverage — read promotion copies it into
     wbuf; the option only defers allocating the table *)
  mutable rset : Keyspace.Value.t KeyTbl.t option;
      (** read set with observed values (tracked only under the
          Serializable isolation level, for read promotion); [None]
          until the first recorded read *)
  (* lint: allow fingerprint-coverage — derived view of rset (key list
     in insertion order); rset itself drives certification *)
  mutable rset_keys : Keyspace.Key.t list;
  (* --- dependency graph (node-local by construction) --- *)
  mutable deps : Txid.Set.t;  (** unresolved dependees this tx read/stacked on *)
  (* lint: allow fingerprint-coverage — monotone superset of deps
     (which is fingerprinted); only consulted to scope remote stacking *)
  mutable all_deps : Txid.Set.t;
      (** every dependee ever recorded (never shrinks); declared to
          remote replicas so they only stack this transaction's prepare
          over versions its origin actually ordered it after *)
  (* lint: allow fingerprint-coverage — reverse edges of deps; the
     forward edges are fingerprinted on every dependent *)
  mutable dependents : tx list;  (** unresolved txs that read/stacked on this tx *)
  (* --- coordination --- *)
  (* lint: allow fingerprint-coverage — scheduler wakeup callbacks, not
     protocol state; the conditions they wait on are fingerprinted *)
  mutable watchers : (unit -> unit) list;
      (** callbacks run on any state/bookkeeping change; used to
          implement condition waits in the coordinator fiber *)
  mutable lc : int;  (** local commit timestamp *)
  mutable ct : int;  (** final commit timestamp *)
  mutable pending_prepares : int;
  mutable prepare_failed : bool;
  mutable prepare_timed_out : bool;
      (** the global-certification timer fired with prepares outstanding
          (only ever set when [Config.prepare_timeout_us > 0]) *)
  mutable max_proposal : int;
  mutable global_started : bool;
  (* lint: allow fingerprint-coverage — output-side misspeculation
     accounting; never read back by the protocol *)
  mutable spec_exposed : bool;  (** Ext-Spec: result externalized at LC *)
  (* lint: allow fingerprint-coverage — progress counter mirrored by
     the workload fiber's own program counter *)
  mutable reads_done : int;
  (* lint: allow fingerprint-coverage — observability-only trace span
     handle; tracing is off during model checking *)
  mutable span : int;
      (** open tx-lifecycle span handle in the engine's trace recorder
          ([-1] when tracing is off; see {!Obs.Trace}) *)
  (* lint: allow fingerprint-coverage — deterministic regrouping of
     wbuf fixed at certification; no independent degrees of freedom *)
  mutable groups : (int * (Keyspace.Key.t * Keyspace.Value.t) list) list;
      (** write-set grouped by partition, fixed at certification time *)
  outcome : outcome Dsim.Ivar.t;
  spec_commit : int Dsim.Ivar.t;
      (** Ext-Spec: filled with the simulated time of the speculative
          (local) commit that was externalized to the client *)
}

let make_tx ~id ~origin ~rs ~start_time ~sr =
  {
    id;
    origin;
    rs;
    start_time;
    state = Active;
    sr;
    ffc = 0;
    olcset = None;
    unsafe = false;
    wbuf = None;
    wkeys = [];
    n_wkeys = 0;
    rset = None;
    rset_keys = [];
    deps = Txid.Set.empty;
    all_deps = Txid.Set.empty;
    dependents = [];
    watchers = [];
    lc = 0;
    ct = 0;
    pending_prepares = 0;
    prepare_failed = false;
    prepare_timed_out = false;
    max_proposal = 0;
    global_started = false;
    spec_exposed = false;
    reads_done = 0;
    span = -1;
    groups = [];
    outcome = Dsim.Ivar.create ();
    spec_commit = Dsim.Ivar.create ();
  }

let infinity_ts = max_int

(** Minimum of the OLCSet (∞ when only the sentinel remains). *)
let olc_min tx =
  match tx.olcset with
  | None -> infinity_ts
  | Some s ->
    (* lint: allow hashtbl-order — min is order-insensitive *)
    Txid.Tbl.fold (fun _ v acc -> min v acc) s infinity_ts

(** Record/refresh an OLCSet entry (Alg. 1, line 13). *)
let olc_put tx dep_id v =
  match tx.olcset with
  | Some s -> Txid.Tbl.replace s dep_id v
  | None ->
    let s = Txid.Tbl.create 4 in
    Txid.Tbl.replace s dep_id v;
    tx.olcset <- Some s

let olc_remove tx dep_id =
  match tx.olcset with Some s -> Txid.Tbl.remove s dep_id | None -> ()

(** Empty the OLCSet down to the implicit sentinel. *)
let olc_clear tx = tx.olcset <- None

(** The buffered write of [key], if any (read-your-writes). *)
let buffered tx key =
  match tx.wbuf with None -> None | Some w -> KeyTbl.find_opt w key

(** The buffered write of a key in [wkeys]. *)
let buffered_exn tx key =
  match tx.wbuf with None -> raise Not_found | Some w -> KeyTbl.find w key

(** Buffer a write, keeping [wkeys]/[n_wkeys] in step. *)
let buffer tx key value =
  let w =
    match tx.wbuf with
    | Some w -> w
    | None ->
      let w = KeyTbl.create 8 in
      tx.wbuf <- Some w;
      w
  in
  if not (KeyTbl.mem w key) then begin
    tx.wkeys <- key :: tx.wkeys;
    tx.n_wkeys <- tx.n_wkeys + 1
  end;
  KeyTbl.replace w key value

(** Record the first value read from [key] (Serializable read set). *)
let record_read tx key value =
  let r =
    match tx.rset with
    | Some r -> r
    | None ->
      let r = KeyTbl.create 8 in
      tx.rset <- Some r;
      r
  in
  if not (KeyTbl.mem r key) then begin
    KeyTbl.replace r key value;
    tx.rset_keys <- key :: tx.rset_keys
  end

(** The recorded value of a key in [rset_keys]. *)
let recorded_exn tx key =
  match tx.rset with None -> raise Not_found | Some r -> KeyTbl.find r key

let is_aborted tx = match tx.state with Aborted _ -> true | _ -> false

let is_read_only tx = tx.n_wkeys = 0

(** Run and clear the condition watchers after any observable change. *)
let notify tx =
  match tx.watchers with
  | [] -> ()
  | ws ->
    tx.watchers <- [];
    List.iter (fun f -> f ()) (List.rev ws)

(** Raise {!Tx_abort} if the transaction was aborted behind the
    coordinator's back. *)
let check_live tx =
  match tx.state with Aborted r -> raise (Tx_abort r) | Active | Local_committed | Committed -> ()

(** Execution events emitted to an optional observer; the SPSI checker
    reconstructs and validates histories from these. *)
type event =
  | Ev_begin of { id : Txid.t; origin : int; rs : int; time : int }
  | Ev_read of {
      id : Txid.t;
      key : Keyspace.Key.t;
      writer : Txid.t option;  (** creator of the observed version; [None] = key absent *)
      version_ts : int;
      speculative : bool;
      start_time : int;  (** when this read attempt was issued *)
      time : int;  (** when the value was returned to the transaction *)
    }
  | Ev_write of { id : Txid.t; key : Keyspace.Key.t; time : int }
  | Ev_local_commit of { id : Txid.t; lc : int; unsafe : bool; time : int }
  | Ev_commit of { id : Txid.t; ct : int; time : int }
  | Ev_abort of { id : Txid.t; reason : abort_reason; time : int }

(** Multi-versioned storage of one partition replica, including the
    per-key [LastReader] metadata that powers Precise Clocks (§5.3 of
    the paper): the read snapshot of the most recent reader of each key,
    tracked at every replica that serves reads. *)

module Key = Keyspace.Key
module KeyTbl : Hashtbl.S with type key = Key.t

type t

val create : unit -> t

(** The (possibly fresh) chain of a key. *)
val chain : t -> Key.t -> Chain.t

val chain_opt : t -> Key.t -> Chain.t option
val key_count : t -> int

(** Total stored versions across every chain.  O(1) (incremental). *)
val version_count : t -> int

(** Initial load, bypassing the protocol: installs a committed version
    at timestamp [ts] (default 0). *)
val load : t -> ?ts:int -> writer:Txid.t -> Key.t -> Keyspace.Value.t -> unit

val last_reader : t -> Key.t -> int

(** Raise the key's [LastReader] to [rs] (monotone). *)
val bump_last_reader : t -> Key.t -> int -> unit

(** Latest version visible at snapshot [rs], any state; does not bump
    [LastReader] (the partition server does that explicitly). *)
val latest_before : t -> Key.t -> rs:int -> Version.t option

val latest_committed_before : t -> Key.t -> rs:int -> Version.t option
val newest_committed : t -> Key.t -> Version.t option
val insert_version : t -> Key.t -> Version.t -> unit

(** [insert_version] into a chain the caller already looked up with
    {!chain} or {!chain_opt} on this store. *)
val insert_into : t -> Chain.t -> Version.t -> unit

val find_version : t -> Key.t -> Txid.t -> Version.t option
val remove_version : t -> Key.t -> Txid.t -> unit
val reposition : t -> Key.t -> Version.t -> unit

(** Uncommitted versions currently stacked on the key. *)
val uncommitted : t -> Key.t -> Version.t list

(** Multi-version GC over every chain; returns versions dropped. *)
val prune : t -> horizon:int -> int

val reads_served : t -> int

(** [(data_bytes, last_reader_metadata_bytes)] — the §6.1 Precise Clocks
    storage-overhead accounting.  O(1): maintained incrementally on
    every insert/remove/prune. *)
val storage_bytes : t -> int * int

(** Recompute the storage counters by walking every chain and compare
    against the incremental ones (differential oracle, test support). *)
val check_accounting : t -> (unit, string) result

val check_invariants : t -> (unit, string) result

(** Order-independent structural hash of the replica state (chains +
    [LastReader] metadata); model-checker visited-state dedup. *)
val fingerprint : t -> int

(** Every committed version as [(key, version)], keys ascending and
    versions oldest-first within a key.  Deterministic; recovery
    state-transfer support (a recovering replica copies the committed
    state it missed from a live peer). *)
val committed_versions : t -> (Key.t * Version.t) list

(** Multi-versioned storage of one partition replica, including the
    per-key [LastReader] metadata that powers Precise Clocks (§5.3 of
    the paper): the read snapshot of the most recent reader of each key,
    tracked at every replica that serves reads.  A key's [LastReader]
    lives in its chain; a key read before its first write gets a hidden
    {e orphan} chain that holds only the [LastReader] and counts as no
    chain ({!chain_opt}, {!key_count}, {!storage_bytes},
    {!fingerprint}) until {!chain} adopts it. *)

module Key = Keyspace.Key
module KeyTbl : Hashtbl.S with type key = Key.t

type t

val create : unit -> t

(** The (possibly fresh) chain of a key; adopts the key's orphan chain
    if it has one. *)
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

(** A read at snapshot [rs] (Alg. 2 readFrom): raises the key's
    [LastReader] to [rs] and returns the latest version visible at [rs],
    any state.  One key lookup. *)
val read_at : t -> Key.t -> rs:int -> Version.t option

(** Latest version visible at snapshot [rs], any state; does not bump
    [LastReader]. *)
val latest_before : t -> Key.t -> rs:int -> Version.t option

val insert_version : t -> Key.t -> Version.t -> unit

(** [insert_version] into a chain the caller already looked up with
    {!chain} or {!chain_opt} on this store. *)
val insert_into : t -> Chain.t -> Version.t -> unit

val find_version : t -> Key.t -> Txid.t -> Version.t option

(** Remove the writer's version from a chain of this store, if any. *)
val remove_from : t -> Chain.t -> Txid.t -> unit

(** Multi-version GC over the chains holding two or more versions;
    returns versions dropped. *)
val prune : t -> horizon:int -> int

val reads_served : t -> int

(** [(data_bytes, last_reader_metadata_bytes)] — the §6.1 Precise Clocks
    storage-overhead accounting.  O(1): maintained incrementally on
    every insert/remove/prune. *)
val storage_bytes : t -> int * int

(** Recompute the derived state by walking every chain and compare it
    against what the store maintains incrementally: the storage
    counters, the count of keys with a [LastReader], the prune list
    (exactly the chains with two or more versions, each once) and the
    orphan chains (counted, empty, each holding a [LastReader]).
    Differential oracle for tests and the benchmark gate. *)
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

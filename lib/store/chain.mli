(** Per-key multi-version chain, ordered by decreasing timestamp.

    The chain accepts speculative "stacks": uncommitted versions sit
    above the committed history; state transitions only increase a
    version's timestamp and {!reposition} restores ordering.

    Backed by a growable array sorted by timestamp: appending the
    newest version (the protocol's common case) is O(1) amortized, the
    snapshot lookups are binary searches, and {!length}/{!newest}/
    {!exists_newer_than} are O(1).  The newest committed version is
    found by walking down the uncommitted stack.

    Each chain also carries its key's Precise Clocks [LastReader] and
    one word for the owning store; {!Mvstore} maintains both. *)

type t

val create : unit -> t

(** The key's [LastReader] (0 until a read raises it). *)
val last_reader : t -> int

val set_last_reader : t -> int -> unit

(** The owning store's word: [-1] on a fresh chain.  {!Mvstore} keeps
    the chain's prune-list index there, or a negative mark. *)
val slot : t -> int

val set_slot : t -> int -> unit

val is_empty : t -> bool

(** O(1). *)
val length : t -> int

(** Versions, newest timestamp first (allocates a fresh list;
    introspection and test support). *)
val versions : t -> Version.t list

(** Fold over the versions newest-first without allocating. *)
val fold_newest : ('a -> Version.t -> 'a) -> 'a -> t -> 'a

(** Insert keeping descending-timestamp order; among equal timestamps
    the newly inserted version is considered newer.  O(1) amortized
    when the version is the newest of the chain. *)
val insert : t -> Version.t -> unit

val newest : t -> Version.t option
val newest_committed : t -> Version.t option

(** Latest version with [ts <= rs], any state — what a reader with read
    snapshot [rs] lands on (Alg. 2 [latest_before]).  Binary search. *)
val latest_before : t -> rs:int -> Version.t option

(** Latest committed version with [ts <= rs].  Binary search plus a
    walk over the speculative stack. *)
val latest_committed_before : t -> rs:int -> Version.t option

val find_writer : t -> Txid.t -> Version.t option

(** Remove the writer's version, returning it so callers can keep
    storage accounting incremental. *)
val remove_writer : t -> Txid.t -> Version.t option

(** Re-sort one version after its timestamp was bumped by a state
    transition.  Any external mutation of a version's [ts] or [state]
    must be followed by a [reposition] of that version. *)
val reposition : t -> Version.t -> unit

(** [restack c ~above ~floor] raises the uncommitted versions with
    [above < ts <= floor] to [floor + 1], [floor + 2], ... — ascending
    timestamp, newest position first among equal timestamps — and
    repositions each.  Binary-searches the range and allocates nothing.
    Needs the chain sorted, which every mutation followed by
    {!reposition} leaves it; the committed-suffix invariant may be
    broken. *)
val restack : t -> above:int -> floor:int -> unit

(** Uncommitted versions, newest first.  A full scan: exact even while
    the committed-suffix invariant is transiently broken. *)
val uncommitted : t -> Version.t list

(** [iter_uncommitted f c] is [List.iter f (uncommitted c)] without
    allocating: it walks newest first and stops at the first committed
    version, which is exact whenever the committed-suffix invariant
    holds (see {!check_invariants}). *)
val iter_uncommitted : (Version.t -> unit) -> t -> unit

(** Any version with [ts > after] (write-write certification).  O(1). *)
val exists_newer_than : t -> after:int -> bool

(** Drop committed versions older than [horizon], always retaining the
    newest committed one and every uncommitted version; single pass,
    returns how many were dropped.  [on_drop] fires once per dropped
    version (storage accounting). *)
val prune : ?on_drop:(Version.t -> unit) -> t -> horizon:int -> int

(** Validate the ordering invariants — descending timestamps and the
    committed-suffix property (property-test support). *)
val check_invariants : t -> (unit, string) result

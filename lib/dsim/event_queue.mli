(** Priority queue of timed events for the discrete-event engine.

    Events are ordered by [(time, seq)] where [seq] is a monotonically
    increasing insertion counter, so events scheduled for the same instant
    fire in FIFO order.  This guarantees deterministic replay.

    Events pushed at the time of the last pop go to a FIFO ready ring,
    the rest to a 4-ary heap; pop merges the two heads by
    [(time, seq)], so the split is invisible through this interface:
    every accessor and counter covers both parts. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

(** [push q ~time ev] enqueues [ev] to fire at [time] (microseconds). *)
val push : 'a t -> time:int -> 'a -> unit

(** [push_msg q ~time ~src ~dst ev] enqueues a network delivery and
    records its endpoints unboxed in the queue entry; the run loop reads
    them back through {!popped_src}/{!popped_dst} to apply liveness
    checks without a per-message guard closure.  [0 <= src, dst <
    2^20]. *)
val push_msg : 'a t -> time:int -> src:int -> dst:int -> 'a -> unit

(** Earliest event time, without allocating an option: the run loop
    tests {!is_empty} first.
    @raise Not_found if the queue is empty. *)
val top_time : 'a t -> int

(** [(time, seq)] of the earliest event, if any.  [seq] is the
    queue-local insertion counter: deterministic across replayed runs,
    which makes it a stable event identity for controlled schedulers. *)
val peek_key : 'a t -> (int * int) option

(** [fold_keys_sorted f q acc] folds [f time seq] over all queued keys
    in ascending [(time, seq)] order, independent of the internal
    layout of the heap and the ring.  {!Sim.pending_fingerprint} hashes
    this stream. *)
val fold_keys_sorted : (int -> int -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc

(** Remove and return the earliest event as [(time, ev)].  The queue
    keeps no reference to a popped event.
    @raise Not_found if the queue is empty. *)
val pop : 'a t -> int * 'a

(** Remove and return the earliest event's payload alone — the hot-loop
    variant of {!pop}; the key is read back via {!popped_time} /
    {!popped_src} / {!popped_dst} without allocating a tuple.
    @raise Not_found if the queue is empty. *)
val pop_payload : 'a t -> 'a

(** Time of the most recently popped event. *)
val popped_time : 'a t -> int

(** Source node of the most recently popped event, [-1] if internal. *)
val popped_src : 'a t -> int

(** Destination node of the most recently popped event, [-1] if
    internal. *)
val popped_dst : 'a t -> int

(** {1 Lifetime accounting}

    O(1) counters maintained by {!push}/{!pop}; the observability layer
    reports them in run summaries. *)

val pushes : 'a t -> int
(** Total events ever pushed. *)

val pops : 'a t -> int
(** Total events ever popped. *)

val max_depth : 'a t -> int
(** High-water mark of {!length} over the queue's lifetime. *)

(** Fork-based cell executor: runs a list of thunks across [jobs]
    single-domain worker {e processes} and returns the results in
    submission order.  It is the only executor of the repository; no
    code spawns a domain (see "Parallel execution" in DESIGN.md for the
    OCaml 5.1 fiber/GC race that rules domain workers out).

    Contract:
    - results must be marshallable plain data (no closures, no custom
      blocks) — true of {!Runner.result}, {!Openloop.result} and
      {!Obs.Trace.t};
    - side effects performed by a cell (tracing buffers, counters) stay
      in the child: only the returned value crosses back ({!Sweep}
      ships a traced cell's recorder back with its result);
    - thunks are assigned statically (cell [i] runs on worker
      [i mod jobs]), so results never depend on scheduling;
    - every cell runs, whatever [jobs] is, and every worker is read to
      the end and reaped before anything is raised.

    Must be called from a single-domain process (forking a multi-domain
    OCaml process is unsupported). *)

(** Raised in the parent once every cell has run, naming the
    lowest-index cell that failed: the cell raised (the exception is
    flattened to a message + backtrace string, at every [jobs]), its
    result could not be marshalled, or its worker died or failed to
    report. *)
exception Cell_failed of string

val default_jobs : unit -> int
(** Worker count for callers that do not specify one:
    [Domain.recommended_domain_count ()], the host's CPU count. *)

(** [run ~jobs thunks] executes every thunk and returns their values in
    list order.  [jobs <= 1] (or a singleton list) runs the thunks in
    the calling process, one after another, under the same failure
    contract. *)
val run : jobs:int -> (unit -> 'a) list -> 'a list

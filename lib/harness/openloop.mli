(** Open-loop load injection at million-client scale.

    Transactions arrive at a fixed per-DC rate ({!Workload.Arrival})
    instead of being paced by client completions.  The population is a
    flat struct-of-arrays state machine — five unboxed [int] arrays
    (state tag, node, program id, first start, attempt count) plus a
    per-DC freelist — so an idle client costs five integers and a
    million clients fit in a few dozen megabytes.  Fibers exist only for
    in-flight transactions; arrivals that find their DC's whole
    population busy are counted as dropped, never queued.

    Runs are deterministic in the seed. *)

type setup = {
  topology : Dsim.Topology.t;
  replication_factor : int;
  config : Core.Config.t;
  workload : Workload.Spec.t;
  clients_per_dc : int;  (** population (idle + busy) attached to each DC *)
  arrival : Workload.Arrival.t;
  warmup_us : int;
  measure_us : int;
  seed : int;
  jitter : float;
}

(** Nine EC2 regions, rf 6, 1000 clients/DC, Poisson 100 tx/s/DC, 2 s
    warmup, 5 s measurement. *)
val default_setup : workload:Workload.Spec.t -> config:Core.Config.t -> setup

type result = {
  duration_s : float;
  clients : int;  (** total population across the grid *)
  completed : int;  (** transactions committed inside the window *)
  throughput : float;
  offered_per_dc : float;  (** configured injection rate *)
  admitted : int;  (** arrivals that found an idle client (whole run) *)
  dropped : int;  (** arrivals refused because the DC was saturated *)
  abort_rate : float;
  misspec_rate : float;
  ext_misspec_rate : float;
  final_latency : Metrics.summary;  (** arrival to final commit *)
  spec_latency : Metrics.summary;
  retries : int;  (** aborted attempts inside the window *)
  peak_in_flight : int;  (** cluster-wide concurrent-transaction peak *)
  events : int;  (** simulator events processed (warmup + window) *)
  stats : Core.Stats.t;  (** counter deltas over the window *)
  wan_messages : int;
  timeseries : Obs.Timeseries.t option;
      (** standard snapshot series when [run ~timeseries_us] asked for
          one *)
  batch_flushes : int;  (** coalesced flushes emitted (whole run) *)
  batch_payloads : int;  (** logical payloads those flushes carried *)
}

(** Build the cluster, inject arrivals through warmup + measurement,
    and report.  [timeseries_us] records the standard snapshot series
    ({!Runner.sample_columns}) at that interval through the end of
    measurement.  @raise Invalid_argument if [clients_per_dc < 1]. *)
val run : ?timeseries_us:int -> setup -> result

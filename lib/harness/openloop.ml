(** Open-loop load injection at million-client scale.

    The closed-loop harness ({!Client} / {!Runner}) keeps one fiber per
    client alive for the whole run; each fiber's closure chain, RNG and
    pending-transaction state cost heap words even while the client
    merely thinks.  That caps practical populations around 10^4.  This
    module flips the loop: transactions arrive at an externally fixed
    per-DC rate ({!Workload.Arrival}), and the client population is a
    {e flat struct-of-arrays state machine} — five unboxed [int] arrays
    (state tag, node, program id, first-start, attempt count) indexed by
    client id, plus one per-DC freelist of idle ids.  An idle client is
    five integers; a million clients are a few dozen megabytes,
    regardless of how long the run lasts.

    Fibers are created only for {e in-flight} transactions (the engine's
    transactional API blocks on ivars, so each live transaction needs a
    suspension context) and vanish at commit, so live-heap scales with
    offered load x latency, not with population.  When every client of a
    DC is busy, further arrivals there are counted as {e dropped} rather
    than queued — the open-loop convention: the injector never slows
    down, the metric shows the refusal.

    Determinism matches the rest of the harness: one RNG per DC drives
    both the interarrival draws and the program draws, all seeded from
    the experiment seed. *)

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

let default_setup ~workload ~config =
  {
    topology = Dsim.Topology.ec2_nine;
    replication_factor = 6;
    config;
    workload;
    clients_per_dc = 1_000;
    arrival = Workload.Arrival.poisson ~rate_per_dc:100.;
    warmup_us = 2_000_000;
    measure_us = 5_000_000;
    seed = 1;
    jitter = 0.02;
  }

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
  retries : int;
  peak_in_flight : int;
  events : int;  (** simulator events processed (warmup + window) *)
  stats : Core.Stats.t;
  wan_messages : int;
  timeseries : Obs.Timeseries.t option;
      (** standard snapshot series when [run ~timeseries_us] asked for
          one *)
  batch_flushes : int;  (** coalesced flushes emitted (whole run) *)
  batch_payloads : int;  (** logical payloads those flushes carried *)
}

(* Client state tags.  A client is only ever Idle (on its DC's
   freelist) or Running (one fiber owns it); the arrays below are the
   whole per-client state. *)
let st_idle = 0
let st_running = 1

let run ?timeseries_us setup =
  if setup.clients_per_dc < 1 then invalid_arg "Openloop.run: clients_per_dc < 1";
  let sim = Dsim.Sim.create () in
  let dcs = Dsim.Topology.size setup.topology in
  let node_dc = Array.init dcs (fun i -> i) in
  let rng = Dsim.Rng.create ~seed:setup.seed in
  let net =
    Dsim.Network.create ~sim ~topology:setup.topology ~node_dc ~jitter:setup.jitter
      ~rng:(Dsim.Rng.split rng)
  in
  let placement =
    Store.Placement.ring ~n_nodes:dcs ~replication_factor:setup.replication_factor ()
  in
  let eng =
    Core.Engine.create ~sim ~net ~placement ~config:setup.config
      ~seed:(Dsim.Rng.next rng) ()
  in
  setup.workload.Workload.Spec.load eng;
  let measure_from = setup.warmup_us in
  let measure_to = setup.warmup_us + setup.measure_us in
  let shared = Client.make_shared ~measure_from ~measure_to in
  (* --- flat client pool ------------------------------------------- *)
  let per_dc = setup.clients_per_dc in
  let n = dcs * per_dc in
  let state = Array.make n st_idle in
  let node = Array.init n (fun c -> c / per_dc) in
  let prog = Array.make n (-1) in
  let first_start = Array.make n 0 in
  let attempts = Array.make n 0 in
  (* Freelist of idle ids per DC, as a stack: clients of DC d are ids
     [d*per_dc, (d+1)*per_dc).  Seeded in descending order so the first
     arrivals take the lowest ids (cosmetic, but stable). *)
  let free = Array.init dcs (fun d -> Array.init per_dc (fun i -> (d + 1) * per_dc - 1 - i)) in
  let free_len = Array.make dcs per_dc in
  let dropped = Array.make dcs 0 in
  let admitted = ref 0 in
  let in_flight = ref 0 in
  let peak_in_flight = ref 0 in
  (* Program labels interned to ints so the pool row stays unboxed; the
     executing fiber carries the program value itself. *)
  let label_ids : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let id_of_label l =
    match Hashtbl.find_opt label_ids l with
    | Some i -> i
    | None ->
      let i = Hashtbl.length label_ids in
      Hashtbl.add label_ids l i;
      i
  in
  (* --- one transaction's life (fiber per in-flight transaction) ---- *)
  let finish c (program : Workload.Spec.program) tx_opt =
    (match tx_opt with
     | None -> ()
     | Some tx ->
       let now = Dsim.Sim.now sim in
       if Client.in_window shared now then begin
         let final = now - first_start.(c) in
         Metrics.record shared.Client.final_latency final;
         Metrics.record (Client.label_metrics shared program.Workload.Spec.label) final;
         match Dsim.Ivar.peek tx.Core.Types.spec_commit with
         | Some t when t >= first_start.(c) ->
           Metrics.record shared.Client.spec_latency (t - first_start.(c))
         | Some _ | None -> ()
       end);
    let dc = node.(c) in
    state.(c) <- st_idle;
    in_flight := !in_flight - 1;
    free.(dc).(free_len.(dc)) <- c;
    free_len.(dc) <- free_len.(dc) + 1
  in
  let execute c (program : Workload.Spec.program) =
    let dc = node.(c) in
    let rec attempt () =
      if Dsim.Sim.now sim >= measure_to || not (Core.Engine.is_alive eng dc) then None
      else begin
        let tx = Core.Engine.begin_tx eng ~origin:dc in
        match
          program.Workload.Spec.body eng tx;
          Core.Engine.commit eng tx
        with
        | _ct -> Some tx
        | exception Core.Types.Tx_abort _ ->
          attempts.(c) <- attempts.(c) + 1;
          if Client.in_window shared (Dsim.Sim.now sim) then
            shared.Client.retries <- shared.Client.retries + 1;
          attempt ()
      end
    in
    finish c program (attempt ())
  in
  let start c arng =
    let program = setup.workload.Workload.Spec.next_program arng ~node:node.(c) in
    state.(c) <- st_running;
    prog.(c) <- id_of_label program.Workload.Spec.label;
    first_start.(c) <- Dsim.Sim.now sim;
    attempts.(c) <- 0;
    incr admitted;
    incr in_flight;
    if !in_flight > !peak_in_flight then peak_in_flight := !in_flight;
    Dsim.Fiber.spawn sim (fun () -> execute c program)
  in
  (* --- per-DC arrival chains --------------------------------------- *)
  (* One self-rescheduling closure per DC for the whole run: each firing
     admits (or drops) one arrival, then schedules itself after the next
     interarrival draw.  The chain stops issuing at [measure_to]. *)
  for dc = 0 to dcs - 1 do
    let arng = Dsim.Rng.split rng in
    let arrive = ref (fun () -> ()) in
    (arrive :=
       fun () ->
         if Dsim.Sim.now sim < measure_to then begin
           if free_len.(dc) > 0 then begin
             let l = free_len.(dc) - 1 in
             free_len.(dc) <- l;
             start free.(dc).(l) arng
           end
           else dropped.(dc) <- dropped.(dc) + 1;
           Dsim.Sim.schedule sim
             ~delay:(Workload.Arrival.interarrival_us setup.arrival arng)
             !arrive
         end);
    Dsim.Sim.schedule sim
      ~delay:(Workload.Arrival.interarrival_us setup.arrival arng)
      !arrive
  done;
  (* --- warmup, measure, drain -------------------------------------- *)
  let tseries =
    match timeseries_us with
    | Some interval_us when interval_us > 0 ->
      Some
        (Runner.install_standard_sampler ~sim ~net ~eng ~interval_us
           ~until:measure_to)
    | Some _ | None -> None
  in
  let ev_warm = Dsim.Sim.run ~until:measure_from sim in
  let stats0 = Runner.snapshot_stats eng in
  Dsim.Network.reset_counters net;
  let ev_meas = Dsim.Sim.run ~until:measure_to sim in
  let stats1 = Runner.snapshot_stats eng in
  ignore (Dsim.Sim.run ~until:(measure_to + 200_000) sim);
  let d = Runner.delta_stats ~at_start:stats0 ~at_end:stats1 in
  let duration_s = Dsim.Sim.to_sec setup.measure_us in
  let completed = d.Core.Stats.commits in
  {
    duration_s;
    clients = n;
    completed;
    throughput = float_of_int completed /. duration_s;
    offered_per_dc = setup.arrival.Workload.Arrival.rate_per_dc;
    admitted = !admitted;
    dropped = Array.fold_left ( + ) 0 dropped;
    abort_rate = Core.Stats.abort_rate d;
    misspec_rate = Core.Stats.misspeculation_rate d;
    ext_misspec_rate = Core.Stats.ext_misspeculation_rate d;
    final_latency = Metrics.summarize shared.Client.final_latency;
    spec_latency = Metrics.summarize shared.Client.spec_latency;
    retries = shared.Client.retries;
    peak_in_flight = !peak_in_flight;
    events = ev_warm + ev_meas;
    stats = d;
    wan_messages = Dsim.Network.wan_messages net;
    batch_flushes = Core.Engine.batch_flushes eng;
    batch_payloads = Core.Engine.batch_payloads eng;
    timeseries = tseries;
  }

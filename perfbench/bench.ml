(* One simulation of one benchmark workload, measured from outside the
   library and printed as a single JSON object of raw measurements.

   The layers are timed and counted without touching lib/: the workload's
   [Workload.Spec.t] record is wrapped so that [load] captures the engine
   and times dataset population, and [next_program] times and counts
   workload generation; after the run the captured engine's public
   accessors supply the event-queue, network, partition-server and store
   counters.  perfbench/run.py runs this program once per process (so the
   GC heap and VmHWM belong to one simulation), aggregates the repetitions
   and applies the correctness gate.

     bench.exe --workload W --seed N [--traced] [--rate R] [--window-s S]

   The reference kernel that run.py times between simulations is a
   separate program, refkernel.ml. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type harness =
  | Open_loop of { rate_per_dc : float; clients_per_dc : int }
  | Closed_loop of { clients_per_node : int }

type workload = {
  w_name : string;
  harness : harness;
  warmup_s : int;
  window_s : int;
  setup_reps : int;  (** set-ups timed by one [--setup-only] process (see [setup_times]) *)
  make : Store.Placement.t -> Workload.Spec.t;
}

let synth_a placement = Workload.Synthetic.make ~params:Workload.Synthetic.synth_a placement

(* RUBiS population 10x the default, so the loaded store dominates setup. *)
let rubis_10x placement =
  Workload.Rubis.make
    ~params:{ Workload.Rubis.default with users_per_node = 2_000; items_per_node = 4_000 }
    placement

let workloads =
  [
    {
      w_name = "synth-a-below-knee";
      harness = Open_loop { rate_per_dc = 25.; clients_per_dc = 20_000 };
      warmup_s = 2;
      window_s = 20;
      setup_reps = 40;
      make = synth_a;
    };
    {
      w_name = "synth-a-overload";
      harness = Open_loop { rate_per_dc = 100.; clients_per_dc = 500 };
      warmup_s = 2;
      window_s = 5;
      setup_reps = 100;
      make = synth_a;
    };
    {
      w_name = "rubis-closed";
      harness = Closed_loop { clients_per_node = 200 };
      warmup_s = 5;
      window_s = 160;
      setup_reps = 3;
      make = rubis_10x;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Outside-in probe                                                     *)
(* ------------------------------------------------------------------ *)

type probe = {
  mutable eng : Core.Engine.t option;
  setup_only : bool;  (** stop the run at the first simulated event *)
  mutable t_call : float;  (** host time at the harness call *)
  mutable t_load0 : float;
  mutable t_load1 : float;
  mutable t_loop0 : float;  (** host time at the first simulated event *)
  mutable t_loop1 : float;  (** host time at the end of the drain *)
  mutable programs : int;
  mutable gen_s : float;  (** time inside the workload's [next_program] *)
  mutable obs_s : float;  (** time inside the SPSI history observer *)
  mutable obs_events : int;
  mutable gc0 : Gc.stat;  (** GC counters at the first simulated event *)
  mutable gc1 : Gc.stat;  (** ... and at the end of the drain *)
  mutable alloc0 : float;
  mutable alloc1 : float;
  mutable commits_before : int;  (** commits before the window opens *)
  mutable commits_through : int;  (** commits up to the window's close *)
  history : Spsi.History.t option;
}

(* Raised by the first simulated event of a set-up-only run, with the
   set-up time. *)
exception Setup_done of float

(* Both harnesses drain for this long after measure_to, then stop. *)
let drain_us = 200_000

(* Four events scheduled here, each ahead of every later-scheduled event
   at its instant, bracket the run from inside the simulation:
   - the first simulated instant and the end of the drain, so the event
     loop is timed apart from the harness's start-up and its post-run
     summaries;
   - just before measure_from and just after measure_to, reading the
     commit count.  The harness records a latency for every commit at a
     sim time in [measure_from, measure_to], while its window counters
     are snapshots taken after all events at measure_from; these two
     counts check the latency sample count exactly. *)
let wrap probe ~measure_from ~measure_to (spec : Workload.Spec.t) =
  {
    spec with
    Workload.Spec.load =
      (fun eng ->
        probe.eng <- Some eng;
        (match probe.history with
        | Some h ->
          Core.Engine.set_observer eng (fun ev ->
              let t = now () in
              Spsi.History.record h ev;
              probe.obs_events <- probe.obs_events + 1;
              probe.obs_s <- probe.obs_s +. (now () -. t))
        | None -> ());
        probe.t_load0 <- now ();
        spec.Workload.Spec.load eng;
        let sim = Core.Engine.sim eng in
        Dsim.Sim.schedule_at sim ~time:(Dsim.Sim.now sim) (fun () ->
            probe.gc0 <- Gc.quick_stat ();
            probe.alloc0 <- Gc.allocated_bytes ();
            probe.t_loop0 <- now ();
            if probe.setup_only then raise (Setup_done (probe.t_loop0 -. probe.t_call)));
        Dsim.Sim.schedule_at sim ~time:measure_from (fun () ->
            probe.commits_before <- Core.Engine.total_commits eng);
        Dsim.Sim.schedule_at sim ~time:(measure_to + 1) (fun () ->
            probe.commits_through <- Core.Engine.total_commits eng);
        Dsim.Sim.schedule_at sim ~time:(measure_to + drain_us) (fun () ->
            probe.t_loop1 <- now ();
            probe.gc1 <- Gc.quick_stat ();
            probe.alloc1 <- Gc.allocated_bytes ());
        probe.t_load1 <- now ());
    next_program =
      (fun rng ~node ->
        let t = now () in
        let p = spec.Workload.Spec.next_program rng ~node in
        probe.programs <- probe.programs + 1;
        probe.gen_s <- probe.gen_s +. (now () -. t);
        p);
  }

(* ------------------------------------------------------------------ *)
(* JSON output                                                          *)
(* ------------------------------------------------------------------ *)

type value = I of int | F of float | S of string | L of int list | FL of float list

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_value = function
  | I i -> string_of_int i
  | F f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | F _ -> "null"
  | S s -> json_string s
  | L l -> "[" ^ String.concat "," (List.map string_of_int l) ^ "]"
  | FL l -> "[" ^ String.concat "," (List.map (Printf.sprintf "%.17g") l) ^ "]"

let print_json fields =
  print_string "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then print_string ",";
      Printf.printf "%s:%s" (json_string k) (json_value v))
    fields;
  print_endline "}"

(* ------------------------------------------------------------------ *)
(* Measurement                                                          *)
(* ------------------------------------------------------------------ *)

(* Peak resident set of this process, KiB (Linux VmHWM). *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb)
      | _ -> scan ()
    in
    let kb = scan () in
    close_in ic;
    kb

let check_result = function Ok () -> "ok" | Error e -> e

(* Per-replica store accounting over every hosted partition. *)
let store_counters eng =
  let placement = Core.Engine.placement eng in
  let versions = ref 0 and served = ref 0 and accounting = ref "ok" in
  for node = 0 to Core.Engine.n_nodes eng - 1 do
    Array.iter
      (fun partition ->
        let st = Core.Partition_server.store (Core.Engine.server eng ~node ~partition) in
        versions := !versions + Store.Mvstore.version_count st;
        served := !served + Store.Mvstore.reads_served st;
        match Store.Mvstore.check_accounting st with
        | Ok () -> ()
        | Error e ->
          if !accounting = "ok" then
            accounting := Printf.sprintf "node %d partition %d: %s" node partition e)
      (Store.Placement.hosted placement node)
  done;
  (!versions, !served, !accounting)

(* Mean critical-path components, in µs, over the transactions that
   committed inside the measurement window — the commits whose latency
   the harness records. *)
let critpath_fields trace ~measure_from ~measure_to =
  let t0 = now () in
  let committed =
    List.filter
      (fun t ->
        t.Obs.Critpath.outcome = `Commit
        && t.Obs.Critpath.tx_t1 >= measure_from
        && t.Obs.Critpath.tx_t1 <= measure_to)
      (Obs.Critpath.of_trace trace)
  in
  let n = List.length committed in
  let sums = Array.make Obs.Critpath.n_components 0 in
  let hidden = ref 0 and total = ref 0 in
  List.iter
    (fun t ->
      Array.iteri (fun i c -> sums.(i) <- sums.(i) + c) (Obs.Critpath.decompose t);
      hidden := !hidden + Obs.Critpath.hidden_us t;
      total := !total + Obs.Critpath.total_us t)
    committed;
  let mean x = if n = 0 then 0. else float_of_int x /. float_of_int n in
  let elapsed = now () -. t0 in
  ("critpath_txs", I n)
  :: ("critpath_s", F elapsed)
  :: ("critpath_total_us", F (mean !total))
  :: ("critpath_hidden_us", F (mean !hidden))
  :: List.map
       (fun c ->
         ( "critpath_us." ^ Obs.Critpath.name c,
           F (mean sums.(Obs.Critpath.index c)) ))
       Obs.Critpath.all

type run_out = {
  window_s : float;
  window_commits : int;
  latency : Harness.Metrics.summary;
  stats : Core.Stats.t;  (** deltas over the measurement window *)
  admitted : int;
  refused : int;
  peak_in_flight : int;
  retries : int;
  eq_depth : int list;
}

let eq_depth_series = function
  | None -> []
  | Some ts ->
    (match Obs.Timeseries.col_index ts "eq_depth" with
     | None -> []
     | Some col ->
       List.init (Obs.Timeseries.n_rows ts) (fun row -> Obs.Timeseries.value ts ~row ~col))

let run_workload ?(setup_only = false) w ~seed ~traced ~timeseries_us =
  let history = if traced then Some (Spsi.History.create ()) else None in
  let probe =
    { eng = None; setup_only; t_call = 0.; t_load0 = 0.; t_load1 = 0.; t_loop0 = 0.;
      t_loop1 = 0.; programs = 0; gen_s = 0.; obs_s = 0.; obs_events = 0;
      gc0 = Gc.quick_stat (); gc1 = Gc.quick_stat ();
      alloc0 = 0.; alloc1 = 0.; commits_before = 0; commits_through = 0; history }
  in
  let trace =
    match w.harness with
    | Closed_loop _ when traced -> Some (Obs.Trace.create ())
    | Closed_loop _ | Open_loop _ -> None
  in
  let topology = Dsim.Topology.ec2_nine and rf = 6 in
  let config = Core.Config.str () in
  let warmup_us = w.warmup_s * 1_000_000 and measure_us = w.window_s * 1_000_000 in
  if not setup_only then Gc.compact ();
  let t0 = now () in
  probe.t_call <- t0;
  let placement =
    Store.Placement.ring ~n_nodes:(Dsim.Topology.size topology) ~replication_factor:rf ()
  in
  let measure_from = warmup_us and measure_to = warmup_us + measure_us in
  let spec = wrap probe ~measure_from ~measure_to (w.make placement) in
  let out =
    match w.harness with
    | Open_loop { rate_per_dc; clients_per_dc } ->
      let r =
        Harness.Openloop.run ?timeseries_us
          {
            (Harness.Openloop.default_setup ~workload:spec ~config) with
            topology;
            replication_factor = rf;
            clients_per_dc;
            arrival = Workload.Arrival.poisson ~rate_per_dc;
            warmup_us;
            measure_us;
            seed;
          }
      in
      {
        window_s = r.Harness.Openloop.duration_s;
        window_commits = r.completed;
        latency = r.final_latency;
        stats = r.stats;
        admitted = r.admitted;
        refused = r.dropped;
        peak_in_flight = r.peak_in_flight;
        retries = r.retries;
        eq_depth = eq_depth_series r.timeseries;
      }
    | Closed_loop { clients_per_node } ->
      let r =
        Harness.Runner.run ?trace ?timeseries_us
          {
            (Harness.Runner.default_setup ~workload:spec ~config) with
            topology;
            replication_factor = rf;
            clients_per_node;
            warmup_us;
            measure_us;
            seed;
            self_tune = `Off;
          }
      in
      {
        window_s = r.Harness.Runner.duration_s;
        window_commits = r.committed;
        latency = r.final_latency;
        stats = r.stats;
        (* Closed loop: every drawn program is admitted, none refused, and
           each client has at most one transaction in flight. *)
        admitted = probe.programs;
        refused = 0;
        peak_in_flight = clients_per_node * Dsim.Topology.size topology;
        retries = Core.Stats.aborts r.stats;
        eq_depth = eq_depth_series r.timeseries;
      }
  in
  let t_end = now () in
  let gc0 = probe.gc0 and gc1 = probe.gc1 in
  let eng = match probe.eng with Some e -> e | None -> failwith "workload load was never called" in
  if probe.t_loop1 = 0. then failwith "the end-of-drain probe event never ran";
  let sim = Core.Engine.sim eng and net = Core.Engine.net eng in
  let versions, served, accounting = store_counters eng in
  let data_bytes, meta_bytes = Core.Engine.storage_breakdown eng in
  let st = out.stats in
  let word = float_of_int (Sys.word_size / 8) in
  let spsi_fields =
    match history with
    | None -> []
    | Some h ->
      let t = now () in
      let violations = Spsi.Checker.check_spsi h in
      let check_s = now () -. t in
      [
        ("spsi_txs", I (Spsi.History.size h));
        ("spsi_violations", I (List.length violations));
        ("spsi_check_s", F check_s);
        ( "spsi_first_violation",
          S
            (match violations with
             | [] -> ""
             | v :: _ -> Format.asprintf "%a" Spsi.Checker.pp_violation v) );
      ]
  in
  let trace_fields =
    match trace with
    | None -> []
    | Some tr ->
      ("trace_events", I (Obs.Trace.n_events tr))
      :: ("causal_edges", I (Obs.Causal.n_edges (Obs.Trace.causal tr)))
      :: critpath_fields tr ~measure_from ~measure_to
  in
  ([
       ("workload", S w.w_name);
       ("seed", I seed);
       ("traced", I (if traced then 1 else 0));
       (* host phases *)
       ("wall_s", F (t_end -. t0));
       (* Set-up runs from the harness call to the first simulated event:
          cluster build, [load], and the harness's start-up after it
          (client state, arrival chains).  The tail, after the drain,
          is the harness's post-run summaries. *)
       ("setup_s", F (probe.t_loop0 -. probe.t_call));
       ("load_s", F (probe.t_load1 -. probe.t_load0));
       ("loop_s", F (probe.t_loop1 -. probe.t_loop0));
       ("tail_s", F (t_end -. probe.t_loop1));
       ("gen_s", F probe.gen_s);
       ("obs_s", F probe.obs_s);
       ("obs_events", I probe.obs_events);
       ("programs", I probe.programs);
       (* simulated outcome *)
       ("window_s", F out.window_s);
       ("window_commits", I out.window_commits);
       ("latency_count", I out.latency.Harness.Metrics.count);
       ("latency_window_commits", I (probe.commits_through - probe.commits_before));
       ("mean_us", F out.latency.Harness.Metrics.mean_us);
       ("p50_us", I out.latency.Harness.Metrics.p50_us);
       ("p99_us", I out.latency.Harness.Metrics.p99_us);
       ("total_commits", I (Core.Engine.total_commits eng));
       ("admitted", I out.admitted);
       ("refused", I out.refused);
       ("peak_in_flight", I out.peak_in_flight);
       ("retries", I out.retries);
       ("started", I st.Core.Stats.started);
       ("commits", I st.Core.Stats.commits);
       ("aborts", I (Core.Stats.aborts st));
       ("aborts.local", I st.Core.Stats.aborts_local);
       ("aborts.remote", I st.Core.Stats.aborts_remote);
       ("aborts.dependency", I st.Core.Stats.aborts_dependency);
       ("aborts.stale_snapshot", I st.Core.Stats.aborts_stale_snapshot);
       ("aborts.evicted", I st.Core.Stats.aborts_evicted);
       ("aborts.prepare_timeout", I st.Core.Stats.aborts_prepare_timeout);
       ("misspeculations", I (Core.Stats.misspeculations st));
       ("reads", I st.Core.Stats.reads);
       ("spec_reads", I st.Core.Stats.spec_reads);
       ("remote_reads", I st.Core.Stats.remote_reads);
       ("olc_blocks", I st.Core.Stats.olc_blocks);
       ("server_blocks", I st.Core.Stats.server_blocks);
       (* dsim *)
       ("events", I (Dsim.Sim.queue_pops sim));
       ("queue_max_depth", I (Dsim.Sim.queue_max_depth sim));
       ("net_messages", I (Dsim.Network.messages_sent net));
       ("net_wan_messages", I (Dsim.Network.wan_messages net));
       ("net_fifo_delays", I (Dsim.Network.fifo_delays net));
       (* store *)
       ("versions_live", I versions);
       ("reads_served", I served);
       ("data_bytes", I data_bytes);
       ("meta_bytes", I meta_bytes);
       (* gc / process *)
       ("alloc_bytes", F (probe.alloc1 -. probe.alloc0));
       ("minor_collections", I (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
       ("major_collections", I (gc1.Gc.major_collections - gc0.Gc.major_collections));
       ("promoted_bytes", F ((gc1.Gc.promoted_words -. gc0.Gc.promoted_words) *. word));
       ("top_heap_bytes", F (float_of_int gc1.Gc.top_heap_words *. word));
       ("peak_rss_kb", I (peak_rss_kb ()));
       (* correctness *)
       ("fingerprint", I (Core.Engine.fingerprint eng));
       ("invariants", S (check_result (Core.Engine.check_invariants eng)));
       ("accounting", S accounting);
       ("eq_depth", L out.eq_depth);
     ]
    @ spsi_fields @ trace_fields)

(* Set-up alone, [w.setup_reps] times back to back in a process of its
   own: the harness call of [run_workload] stopped by its first simulated
   event.  The first rep pays the fresh process's heap growth, the later
   ones run in a warm heap; nothing is collected between reps, so each
   rep's garbage is collected in a later one. *)
let setup_times w ~seed =
  List.init w.setup_reps (fun _ ->
      match run_workload ~setup_only:true w ~seed ~traced:false ~timeseries_us:None with
      | _ -> failwith "a set-up-only run reached the end of its window"
      | exception Setup_done s -> s)

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let usage =
  "bench.exe --workload W --seed N [--traced] [--rate R] [--window-s S] | --setup-only"

(* The knee probe's sampling interval for the event-queue depth. *)
let knee_timeseries_us = 500_000

let () =
  let workload = ref "" and seed = ref 1 and traced = ref false in
  let rate = ref 0. and window_s = ref 0 and setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W workload name");
      ("--seed", Arg.Set_int seed, "N simulation seed");
      ( "--traced",
        Arg.Set traced,
        " record the SPSI history, and the span trace where the harness takes one" );
      ( "--rate",
        Arg.Set_float rate,
        "R knee probe: open-loop arrival rate per DC (overrides), and record eq_depth" );
      ("--window-s", Arg.Set_int window_s, "S measurement window, simulated seconds");
      ("--setup-only", Arg.Set setup_only, " time the set-up alone, repeatedly; no simulation");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match List.find_opt (fun w -> w.w_name = !workload) workloads with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some w ->
    let harness =
      match w.harness with
      | Open_loop o ->
        Open_loop
          { o with rate_per_dc = (if !rate > 0. then !rate else o.rate_per_dc) }
      | Closed_loop _ as h -> h
    in
    let w =
      {
        w with
        harness;
        window_s = (if !window_s > 0 then !window_s else w.window_s);
      }
    in
    let timeseries_us = if !rate > 0. then Some knee_timeseries_us else None in
    if !setup_only then
      print_json
        [ ("workload", S w.w_name); ("seed", I !seed); ("setup_s", FL (setup_times w ~seed:!seed)) ]
    else print_json (run_workload w ~seed:!seed ~traced:!traced ~timeseries_us)

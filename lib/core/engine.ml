(** The STR protocol engine: nodes, transaction coordinators and the
    certification/replication message flows of Algorithms 1 and 2.

    One engine value represents the whole geo-distributed cluster inside
    the simulator.  Coordinators (and the emulated clients driving them)
    run as {!Dsim.Fiber} fibers; partition servers are passive state
    machines invoked from network-delivery events. *)

open Store
module Key = Keyspace.Key
module Value = Keyspace.Value
module Sim = Dsim.Sim
module Ivar = Dsim.Ivar
module Fiber = Dsim.Fiber
module Network = Dsim.Network
module Clock = Dsim.Clock
module Cpu = Dsim.Cpu
open Types

type node = {
  id : int;
  clock : Clock.t;
  cpu : Cpu.t;
  servers : (int, Partition_server.t) Hashtbl.t;  (** partition -> replica *)
  server_of : Partition_server.t option array;
      (** the same map indexed by partition: {!server}'s lookup path,
          free of hashing and allocation; [servers] keeps the iteration
          order the crash and sweep paths depend on *)
  cache : Partition_server.t;
  active : tx Txid.Tbl.t;  (** local transactions, active or local-committed *)
  stats : Stats.t;
  decisions : decision Txid.Tbl.t;
      (** persistent write-once decision log of this coordinator, the
          atomic-commitment recovery anchor: consulted by participants
          resolving in-doubt prepares after a crash window.  Written only
          when the recovery protocol is enabled (the log models durable
          storage, so it survives {!crash}/{!recover}). *)
  status_waiters : (int * int) list Txid.Tbl.t;
      (** [(asker_node, partition)] pairs owed a status reply once this
          coordinator decides the transaction — registered when a status
          query arrives while certification is still in flight, so
          in-doubt resolution is event-driven rather than polled *)
  outstanding_reads : (int * Partition_server.read_reply Ivar.t) list ref;
      (** [(target_node, reply ivar)] of this node's in-flight remote
          reads — registered only when a fault layer or the recovery
          protocol is on, so {!crash} can complete reads aimed at the
          dead node with the failure sentinel instead of leaving their
          client fibers parked forever (deterministic, timer-free
          failure detection; the config's retry guard is the timed
          alternative).  Compacted opportunistically; plain transport
          plumbing, not fingerprinted protocol state. *)
  outstanding_read_count : int ref;
  mutable next_tx : int;
  mutable alive : bool;  (** false after a simulated crash (§5.6 fail-over) *)
  mutable epoch : int;
      (** incarnation number, bumped by {!recover}.  Messages sent by a
          previous incarnation must not be delivered to the cluster after
          the node restarts — they carry volatile pre-crash state that the
          crash already aborted or purged — and the delivery-time liveness
          gate cannot tell them apart once the node is alive again, so
          {!send} captures the sender's epoch when a fault layer or the
          recovery protocol is on and drops stale deliveries. *)
}

(** How a commit-pipeline message is processed at its destination.
    [Dispatch_cpu (cost, k)] charges [cost] on the destination CPU before
    running [k]; [Dispatch_inline k] runs [k] directly in the delivery
    event (reply bookkeeping, free in the historical cost model);
    [Dispatch_prepare] is a remote certification request with enough
    structure that a coalesced flush can route it through
    {!Partition_server.certify_batch} (ordered sweep + occupancy stats).
    The work thunk is evaluated at delivery time — exactly when the
    unbatched payload used to compute its cost — so delivery-time
    branches (recovery upserts, pending-key counts) keep their timing. *)
type dispatch =
  | Dispatch_cpu of int * (unit -> unit)
  | Dispatch_inline of (unit -> unit)
  | Dispatch_prepare of {
      dcost : int;  (** certification CPU cost, charged with the flush *)
      dsrv : Partition_server.t;
      dreq : Partition_server.batch_req;
      dpre : unit -> bool;
          (** incarnation guards + speculative evictions; false = stale *)
      dpost : Partition_server.prepare_outcome -> unit;
    }

(** One coalesced logical message parked on a (src,dst) link queue.
    [bepoch] pins the sender incarnation at enqueue time: the flush
    drops items from a since-restarted incarnation, mirroring the
    delivery-time epoch guard of the unbatched path. *)
type batch_item = {
  bkind : Obs.Trace.msg_kind;
  bepoch : int;
  bctx_a : int;
  bctx_b : int;
      (** emitting transaction identity ([min_int] when none): the
          flush stamps each payload's causal edge with it *)
  bt_enq : int;  (** enqueue time — start of the batch-park interval *)
  bwork : unit -> dispatch;
}

(** Per-(src,dst) coalescing queue.  [bq] holds items in reverse enqueue
    order; [bq_gen] is bumped by every flush so the armed window timer
    (which captures the generation it was armed under) turns into a
    no-op when a size-cap flush already emptied the queue. *)
type batch = {
  mutable bq : batch_item list;
  mutable bq_n : int;
  mutable bq_gen : int;
  mutable bq_span : int;
  mutable bq_first_at : int;
}

type t = {
  sim : Sim.t;
  net : Network.t;
  placement : Placement.t;
  config : Config.t;
  nodes : node array;
  nearest : int array array;  (** node -> partition -> closest replica node *)
  cur_master : int array;
      (** current master per partition; differs from the static placement
          after a fail-over promoted a slave (§5.6) *)
  trace : Obs.Trace.t;  (** span/counter recorder; a disabled one by default *)
  batches : batch array array;
      (** (src,dst) coalescing queues; all permanently empty when
          [batch_window_us = 0], restoring the unbatched engine
          bit-for-bit.  Mixed into {!fingerprint} only when nonempty. *)
  (* lint: allow fingerprint-coverage — monotone stat counter (flush
     count doubles as the sweep-token generator), not protocol state *)
  mutable batch_flushes : int;
  (* lint: allow fingerprint-coverage — monotone stat counter *)
  mutable batch_payloads : int;
  (* lint: allow fingerprint-coverage — derived observability gauge
     (count of transactions sitting in Local_committed), recomputable
     from the transaction records that ARE fingerprinted *)
  mutable spec_live : int;
  batch_occ : int array;  (** flush-size histogram; index [min n 16] *)
  (* lint: allow fingerprint-coverage — test/trace hook installed by
     harnesses; not simulation state *)
  mutable observer : (event -> unit) option;
  mutable fault : Dsim.Fault.t option;
      (** declarative fault layer, when installed; its link state is
          mixed into {!fingerprint} via [Fault.fingerprint] *)
  (* lint: allow fingerprint-coverage — derived from static configuration
     (recovery periods / fault installation), not evolving protocol
     state *)
  mutable recovery_on : bool;
      (** atomic-commitment recovery enabled: decision logging, in-doubt
          holds across crashes, and decision-carrying commit upserts.
          Derived from the config's recovery periods, or forced by
          {!install_fault}.  Off = the pre-recovery engine bit-for-bit. *)
}

let sim t = t.sim
let net t = t.net
let config t = t.config
let trace t = t.trace
let placement t = t.placement
let n_nodes t = Array.length t.nodes
let node t i = t.nodes.(i)
let node_stats t i = t.nodes.(i).stats
let set_observer t f = t.observer <- Some f
let clear_observer t = t.observer <- None

let emit t ev = match t.observer with None -> () | Some f -> f ev

(* Shared continuation for fire-and-forget CPU charges (rollback/apply
   cost accounting) — hoisted so the hot paths don't allocate a fresh
   unit closure per call. *)
let nop () = ()

(* Sentinel installed by the remote-read failure guard when every
   (re)sent request stays unanswered past the detection window.
   Compared by physical equality: a genuine [`Missing] reply is a
   distinct allocation, so it can never be mistaken for the sentinel. *)
let read_failed_reply : Partition_server.read_reply =
  { value = None; src = `Missing; writer = None }

(** All protocol messaging goes through here: messages to or from a
    crashed node are silently dropped — both endpoints are re-checked at
    delivery time (by the simulator's delivery gate, installed in
    {!create}), so messages already in flight when the crash happens are
    lost with it.  Together with the purge in {!crash} this is a
    presumed-abort termination for the dead coordinator's in-doubt
    transactions; true coordinator-state high availability is the
    orthogonal mechanism the paper defers to (§5.6).

    The gate replaces a guard closure this function used to wrap around
    every payload: the hot path now forwards [f] to the network
    unmodified, and the queue entry's unboxed endpoint word is what the
    run loop checks — one allocation per message eliminated. *)
let send_raw eng ~kind ~src ~dst f =
  Obs.Trace.count_msg eng.trace kind;
  let nd = eng.nodes.(src) in
  if nd.alive then
    if eng.recovery_on || eng.fault <> None then begin
      (* Crash-recover is possible: stamp the payload with the sender's
         incarnation so a message from a since-restarted node is dropped
         at delivery even though the liveness gate sees it alive again. *)
      let epoch = nd.epoch in
      Network.send eng.net ~src ~dst (fun () -> if nd.epoch = epoch then f ())
    end
    else Network.send eng.net ~src ~dst f

(* Causal context of a protocol send: the emitting transaction's
   identity [(origin, number)], threaded to every [send] / [send_work]
   site so deliveries link into the per-transaction causal DAG
   (Obs.Causal).  The analyzer's [causal-coverage] rule enforces that
   every site carries one. *)
let ctx_of_txid id = (Txid.origin id, Txid.number id)

(** Record one causal message edge at delivery time, when the
    destination's queue backlog is observable.  Pure append into the
    trace's edge store — never schedules, never perturbs the run. *)
let record_edge eng ~kind ~a ~b ~src ~dst ~t_enq ~t_wire ~cost =
  Obs.Trace.edge eng.trace ~kind ~a ~b ~src ~dst ~t_enq ~t_wire
    ~t_deliver:(Sim.now eng.sim)
    ~queue:(Cpu.backlog_us eng.nodes.(dst).cpu)
    ~cost ()

(** Traced protocol send.  [ctx] is the emitting transaction; [dcost]
    is the destination-side handler cost when the site knows it (read
    service, coordinator-op bookkeeping) so the edge's dispatch-cpu
    segment matches the [Cpu.exec] the handler will issue.  With
    tracing off this forwards to {!send_raw} untouched — one branch,
    zero allocation. *)
let send eng ~kind ~ctx ?(dcost = 0) ~src ~dst f =
  if Obs.Trace.enabled eng.trace then begin
    let t_send = Sim.now eng.sim in
    let a, b = ctx in
    send_raw eng ~kind ~src ~dst (fun () ->
        record_edge eng ~kind ~a ~b ~src ~dst ~t_enq:t_send ~t_wire:t_send
          ~cost:dcost;
        f ())
  end
  else send_raw eng ~kind ~src ~dst f

(** Trace process id of the data center hosting [n] ([+1] keeps pid 0
    free — some trace viewers reserve it). *)
let pid_of eng n = Obs.Trace.pid_base eng.trace + Network.dc_of_node eng.net n + 1

(** Current master of a partition (reflects fail-over promotions). *)
let master_of eng p = eng.cur_master.(p)

(** Live slaves of a partition: its live replicas minus the current
    master. *)
let live_slaves eng p =
  Array.to_list (Placement.replicas eng.placement p)
  |> List.filter (fun r -> r <> eng.cur_master.(p) && eng.nodes.(r).alive)

let is_alive eng n = eng.nodes.(n).alive

(** The node's cache partition (test and introspection support). *)
let cache_of eng i = eng.nodes.(i).cache

let server eng ~node:n ~partition:p =
  match eng.nodes.(n).server_of.(p) with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "Engine.server: node %d does not replicate partition %d" n p)

let create ~sim ~net ~placement ~config ?(seed = 42) ?trace () =
  let n = Network.node_count net in
  if Placement.n_nodes placement <> n then
    invalid_arg "Engine.create: placement/network node count mismatch";
  let trace = match trace with Some tr -> tr | None -> Obs.Trace.disabled () in
  let node_pid id = Obs.Trace.pid_base trace + Network.dc_of_node net id + 1 in
  if Obs.Trace.enabled trace then begin
    (* Declare the Chrome-trace process/thread structure up front, in a
       fixed order: one process per data center, one thread per protocol
       actor (coordinator, cache partition, each partition replica). *)
    let topo = Network.topology net in
    for dc = 0 to Dsim.Topology.size topo - 1 do
      Obs.Trace.declare_process trace
        ~pid:(Obs.Trace.pid_base trace + dc + 1)
        ~name:(Printf.sprintf "dc%d-%s" dc (Dsim.Topology.name topo dc))
    done;
    for id = 0 to n - 1 do
      let pid = node_pid id in
      Obs.Trace.declare_thread trace ~pid ~tid:(Obs.Trace.coord_tid id)
        ~name:(Printf.sprintf "node%d-coord" id);
      Obs.Trace.declare_thread trace ~pid ~tid:(Obs.Trace.cache_tid id)
        ~name:(Printf.sprintf "node%d-cache" id);
      for p = 0 to Placement.n_partitions placement - 1 do
        if Placement.replicates placement ~node:id ~partition:p then
          Obs.Trace.declare_thread trace ~pid
            ~tid:(Obs.Trace.server_tid ~node:id ~partition:p)
            ~name:(Printf.sprintf "node%d-p%d" id p)
      done
    done
  end;
  let rng = Dsim.Rng.create ~seed in
  let nodes =
    Array.init n (fun id ->
        let skew =
          if config.Config.max_clock_skew_us = 0 then 0
          else
            Dsim.Rng.int_range rng ~lo:(-config.Config.max_clock_skew_us)
              ~hi:config.Config.max_clock_skew_us
        in
        let clock = Clock.create ~sim ~skew_us:skew ~drift_ppm:0. in
        let cpu = Cpu.create sim in
        let stats = Stats.create () in
        {
          id;
          clock;
          cpu;
          servers = Hashtbl.create 16;
          server_of = Array.make (Placement.n_partitions placement) None;
          cache =
            Partition_server.create ~sim ~clock ~cpu ~config ~node_id:id
              ~partition:(-1) ~is_cache:true ~stats ~trace ~pid:(node_pid id) ();
          active = Txid.Tbl.create 256;
          stats;
          decisions = Txid.Tbl.create 64;
          status_waiters = Txid.Tbl.create 8;
          outstanding_reads = ref [];
          outstanding_read_count = ref 0;
          next_tx = 0;
          alive = true;
          epoch = 0;
        })
  in
  for p = 0 to Placement.n_partitions placement - 1 do
    Array.iter
      (fun r ->
        let nd = nodes.(r) in
        let srv =
          Partition_server.create ~sim ~clock:nd.clock ~cpu:nd.cpu ~config
            ~node_id:r ~partition:p ~stats:nd.stats ~trace ~pid:(node_pid r) ()
        in
        Hashtbl.replace nd.servers p srv;
        nd.server_of.(p) <- Some srv)
      (Placement.replicas placement p)
  done;
  let nearest =
    Array.init n (fun src ->
        Array.init (Placement.n_partitions placement) (fun p ->
            if Placement.replicates placement ~node:src ~partition:p then src
            else begin
              let best = ref (-1) and best_lat = ref max_int in
              Array.iter
                (fun r ->
                  let lat = Network.latency_us net ~src ~dst:r in
                  if lat < !best_lat then begin
                    best := r;
                    best_lat := lat
                  end)
                (Placement.replicas placement p);
              !best
            end))
  in
  (* Delivery-time liveness check for every message scheduled through
     {!send}: one closure per engine instead of one guard wrapper per
     message.  Internal events (timers, CPU completions, fiber wakeups)
     bypass the gate. *)
  Sim.set_delivery_gate sim (fun ~src ~dst -> nodes.(src).alive && nodes.(dst).alive);
  {
    sim;
    net;
    placement;
    config;
    nodes;
    nearest;
    cur_master = Array.init (Placement.n_partitions placement) (Placement.master placement);
    trace;
    batches =
      Array.init n (fun _ ->
          Array.init n (fun _ ->
              { bq = []; bq_n = 0; bq_gen = 0; bq_span = -1; bq_first_at = 0 }));
    batch_flushes = 0;
    batch_payloads = 0;
    spec_live = 0;
    batch_occ = Array.make 17 0;
    observer = None;
    fault = None;
    recovery_on =
      config.Config.prepare_timeout_us > 0
      || config.Config.status_retry_us > 0
      || config.Config.termination_timeout_us > 0
      || config.Config.broken_lost_commit
      || config.Config.broken_double_resolution;
  }

(* Writer of every loaded version: one shared id, not one per replica
   per key. *)
let loader = Txid.make ~origin:(-1) ~number:0

(** Install an initial committed version of [key] (timestamp 0) at every
    replica of its partition, bypassing the protocol.  For dataset
    loading before the measured run. *)
let load eng key value =
  let p = Key.partition key in
  Array.iter
    (fun r ->
      Mvstore.load
        (Partition_server.store (server eng ~node:r ~partition:p))
        ~writer:loader key value)
    (Placement.replicas eng.placement p)

(* ------------------------------------------------------------------ *)
(* Fiber helpers                                                       *)
(* ------------------------------------------------------------------ *)

(** Charge [cost] microseconds on [nd]'s CPU and wait for completion. *)
let charge nd cost = if cost > 0 then Fiber.suspend (fun resume -> Cpu.exec nd.cpu ~cost resume)

(** Block the current fiber until [cond ()] holds; re-evaluated after
    every {!Types.notify} on [tx]. *)
let rec wait_until tx cond =
  if not (cond ()) then begin
    let iv = Ivar.create () in
    tx.watchers <- (fun () -> ignore (Ivar.fill_if_empty iv ())) :: tx.watchers;
    Fiber.await iv;
    wait_until tx cond
  end

(* ------------------------------------------------------------------ *)
(* Message coalescing (queue-oriented speculative batching)            *)
(* ------------------------------------------------------------------ *)

(* Only the commit pipeline coalesces: prepares, replicates, their
   replies and the decision broadcasts.  The read path stays unbatched
   (it is the latency-critical interactive path) and so does the
   recovery protocol's status traffic (AC5 termination must not wait on
   a throughput window). *)
let batchable = function
  | Obs.Trace.M_prepare | Obs.Trace.M_prepare_reply | Obs.Trace.M_replicate
  | Obs.Trace.M_commit | Obs.Trace.M_abort -> true
  | Obs.Trace.M_read_req | Obs.Trace.M_read_reply | Obs.Trace.M_status_req
  | Obs.Trace.M_status_reply | Obs.Trace.M_prepare_batch
  | Obs.Trace.M_replicate_batch -> false

(* Unbatched execution of one dispatch at [dst]: exactly the event
   structure the pre-batching payloads had — a [Dispatch_cpu] or
   [Dispatch_prepare] is one [Cpu.exec] at delivery time, a
   [Dispatch_inline] runs directly in the delivery event — plus the
   per-message [cost_msg] dispatch overhead when that model is on.
   With [cost_msg = 0] (the default) this is bit-identical to the
   historical engine. *)
let run_dispatch_solo eng ~dst work =
  let cm = eng.config.Config.cost_msg in
  match work () with
  | Dispatch_cpu (c, k) -> Cpu.exec eng.nodes.(dst).cpu ~cost:(cm + c) k
  | Dispatch_inline k ->
    if cm = 0 then k () else Cpu.exec eng.nodes.(dst).cpu ~cost:cm k
  | Dispatch_prepare { dcost; dsrv; dreq; dpre; dpost } ->
    Cpu.exec eng.nodes.(dst).cpu ~cost:(cm + dcost) (fun () ->
        if dpre () then dpost (Partition_server.prepare_req dsrv dreq))

(* Traced twin of {!run_dispatch_solo}: additionally records the
   payload's causal edge, here at delivery time because that is when
   both the destination backlog and the dispatch cost are known.  Kept
   separate so the untraced hot path stays allocation-free. *)
let run_dispatch_traced eng ~kind ~a ~b ~src ~dst ~t_send work =
  let cm = eng.config.Config.cost_msg in
  let w = work () in
  let cost =
    match w with
    | Dispatch_cpu (c, _) -> cm + c
    | Dispatch_inline _ -> cm
    | Dispatch_prepare { dcost; _ } -> cm + dcost
  in
  record_edge eng ~kind ~a ~b ~src ~dst ~t_enq:t_send ~t_wire:t_send ~cost;
  match w with
  | Dispatch_cpu (c, k) -> Cpu.exec eng.nodes.(dst).cpu ~cost:(cm + c) k
  | Dispatch_inline k ->
    if cm = 0 then k () else Cpu.exec eng.nodes.(dst).cpu ~cost:cm k
  | Dispatch_prepare { dcost; dsrv; dreq; dpre; dpost } ->
    Cpu.exec eng.nodes.(dst).cpu ~cost:(cm + dcost) (fun () ->
        if dpre () then dpost (Partition_server.prepare_req dsrv dreq))

(** Wire transport of one coalesced flush: ONE network message (one
    latency draw, one FIFO slot) carrying [n] logical payloads; the
    delivery body charges the amortized batch ~cost in a single CPU
    event. *)
let send_batch eng ~kind ~src ~dst ~n f =
  Obs.Trace.count_msg eng.trace kind;
  Network.send_coalesced eng.net ~src ~dst ~n f

(** Flush a link queue: emit the parked payloads as one wire message.
    Flush rules: (1) the window timer armed by the first enqueue, or
    (2) the [batch_max] size cap, whichever fires first; a generation
    counter voids the timer of a queue the size cap already emptied.
    A flush from a node that crashed after enqueueing is dropped whole
    (the unbatched sends would have been dropped at the source), and
    payloads enqueued by a previous incarnation of the sender are
    filtered at delivery — the same guard the unbatched path applies
    per message. *)
let flush_batch eng ~src ~dst b =
  if b.bq_n > 0 then begin
    let items = List.rev b.bq in
    let n = b.bq_n in
    let t_wire = Sim.now eng.sim in
    b.bq <- [];
    b.bq_n <- 0;
    b.bq_gen <- b.bq_gen + 1;
    Obs.Trace.span_end eng.trace b.bq_span ~t1:t_wire;
    b.bq_span <- -1;
    if eng.nodes.(src).alive then begin
      eng.batch_flushes <- eng.batch_flushes + 1;
      eng.batch_payloads <- eng.batch_payloads + n;
      let occ = if n > 16 then 16 else n in
      eng.batch_occ.(occ) <- eng.batch_occ.(occ) + 1;
      let sweep = eng.batch_flushes in
      let deliver () =
        let live = List.filter (fun it -> eng.nodes.(src).epoch = it.bepoch) items in
        if live <> [] then begin
          (* Evaluate every payload's delivery-time branch (recovery
             upserts, pending-key counts) first, then charge one CPU
             event for the whole batch: one header ([cost_msg]) plus the
             per-item marginals.  Bodies run in enqueue order;
             certification requests go through the partition server's
             batched sweep, which also lets a later prepare of the batch
             stack over versions an earlier one just installed. *)
          let works = List.map (fun it -> it.bwork ()) live in
          let total =
            List.fold_left
              (fun acc w ->
                match w with
                | Dispatch_cpu (c, _) -> acc + c
                | Dispatch_inline _ -> acc
                | Dispatch_prepare { dcost; _ } -> acc + dcost)
              eng.config.Config.cost_msg works
          in
          if Obs.Trace.enabled eng.trace then
            (* One causal edge per live payload: park interval
               [bt_enq, t_wire), one shared wire flight, and the whole
               batch's CPU event as each payload's service window (the
               bodies all run when the single charge completes). *)
            List.iter
              (fun it ->
                record_edge eng ~kind:it.bkind ~a:it.bctx_a ~b:it.bctx_b ~src
                  ~dst ~t_enq:it.bt_enq ~t_wire ~cost:total)
              live;
          Cpu.exec eng.nodes.(dst).cpu ~cost:total (fun () ->
              List.iter
                (function
                  | Dispatch_cpu (_, k) | Dispatch_inline k -> k ()
                  | Dispatch_prepare { dsrv; dreq; dpre; dpost; _ } ->
                    if dpre () then
                      dpost (Partition_server.certify_batch dsrv ~sweep dreq))
                works)
        end
      in
      if List.exists (fun it -> it.bkind = Obs.Trace.M_prepare) items then
        send_batch eng ~kind:Obs.Trace.M_prepare_batch ~src ~dst ~n deliver
      else send_batch eng ~kind:Obs.Trace.M_replicate_batch ~src ~dst ~n deliver
    end
  end

(** Park one payload on the (src,dst) link queue.  The first enqueue of
    a window opens the batch-flush span and arms the window timer as an
    Internal-lane event — under the model checker's controlled mode the
    flush is an ordinary transition, ordered against the protocol. *)
let enqueue_batch eng ~kind ~ctx ~src ~dst work =
  let nd = eng.nodes.(src) in
  if nd.alive then begin
    let b = eng.batches.(src).(dst) in
    if b.bq_n = 0 then begin
      b.bq_first_at <- Sim.now eng.sim;
      if Obs.Trace.enabled eng.trace then
        b.bq_span <-
          Obs.Trace.span_begin eng.trace ~kind:Obs.Trace.S_batch_flush
            ~pid:(pid_of eng src) ~tid:(Obs.Trace.coord_tid src)
            ~t0:b.bq_first_at ~a:src ~b:dst ();
      let gen = b.bq_gen in
      Sim.schedule eng.sim ~delay:eng.config.Config.batch_window_us (fun () ->
          if b.bq_gen = gen then flush_batch eng ~src ~dst b)
    end;
    let bctx_a, bctx_b = ctx in
    b.bq <-
      { bkind = kind; bepoch = nd.epoch; bctx_a; bctx_b;
        bt_enq = Sim.now eng.sim; bwork = work }
      :: b.bq;
    b.bq_n <- b.bq_n + 1;
    if b.bq_n >= eng.config.Config.batch_max then flush_batch eng ~src ~dst b
  end

(** Commit-pipeline send: the payload is a {!dispatch} evaluated at the
    destination.  With coalescing off this is exactly {!send} — same
    epoch stamping, same delivery event structure; with coalescing on,
    batchable kinds park on the link queue until the window closes or
    the size cap fires. *)
let send_work eng ~kind ~ctx ~src ~dst work =
  if eng.config.Config.batch_window_us > 0 && batchable kind then begin
    Obs.Trace.count_msg eng.trace kind;
    enqueue_batch eng ~kind ~ctx ~src ~dst work
  end
  else if Obs.Trace.enabled eng.trace then begin
    let t_send = Sim.now eng.sim in
    let a, b = ctx in
    send_raw eng ~kind ~src ~dst (fun () ->
        run_dispatch_traced eng ~kind ~a ~b ~src ~dst ~t_send work)
  end
  else send_raw eng ~kind ~src ~dst (fun () -> run_dispatch_solo eng ~dst work)

(* ------------------------------------------------------------------ *)
(* Atomic-commitment decision log and in-doubt resolution              *)
(* ------------------------------------------------------------------ *)

(* The recovery protocol satisfies the atomic-commitment properties by
   construction:
   - AC1 (agreement): every resolution applies a decision from the
     coordinator's write-once log, from committed peer evidence of that
     same decision, or presumed abort when provably no commit decision
     exists — no two participants resolve differently;
   - AC2 (validity): a commit decision is only ever logged after every
     expected prepare acknowledged (Alg. 1's replication wait);
   - AC3/AC4 (non-triviality/stability): decisions are logged before
     they are broadcast and never change;
   - AC5 (termination): a recovering replica re-resolves its in-doubt
     prepares against the coordinator's log, or — when the coordinator
     is down — runs cooperative termination against the surviving peer
     replicas, blocking (the classic 2PC window) only while neither the
     coordinator nor decisive peer evidence is reachable. *)

(** Apply a recovered decision to an in-doubt prepare held by [node]'s
    replica of [partition].  No-op once nothing is pending for [txid]
    there (late or duplicate resolutions are absorbed). *)
let apply_resolution eng ~node:n ~partition:p txid d =
  let nd = eng.nodes.(n) in
  if nd.alive then begin
    let srv = server eng ~node:n ~partition:p in
    if Partition_server.has_tx srv txid then begin
      match d with
      | D_commit ct ->
        nd.stats.Stats.in_doubt_commits <- nd.stats.Stats.in_doubt_commits + 1;
        Partition_server.commit srv txid ~ct
      | D_abort ->
        nd.stats.Stats.in_doubt_aborts <- nd.stats.Stats.in_doubt_aborts + 1;
        Partition_server.abort ~tombstone:true srv txid
    end
  end

(** Record the coordinator's decision in its persistent log (write-once)
    and answer any status queries that arrived before it was made. *)
let log_decision eng (tx : tx) d =
  if eng.recovery_on && tx.global_started then begin
    let nd = eng.nodes.(tx.origin) in
    if not (Txid.Tbl.mem nd.decisions tx.id) then begin
      Txid.Tbl.replace nd.decisions tx.id d;
      match Txid.Tbl.find_opt nd.status_waiters tx.id with
      | None -> ()
      | Some waiters ->
        Txid.Tbl.remove nd.status_waiters tx.id;
        List.iter
          (fun (asker, p) ->
            send eng ~kind:Obs.Trace.M_status_reply ~ctx:(ctx_of_txid tx.id)
              ~src:tx.origin ~dst:asker
              (fun () -> apply_resolution eng ~node:asker ~partition:p tx.id d))
          (List.rev waiters)
    end
  end

(** Resolve one in-doubt prepared transaction held by [node]'s replica
    of [partition] (AC5 termination).  Consults the coordinator's
    decision log when the coordinator is reachable — replying later,
    event-driven, if it has not decided yet — and falls back to
    cooperative termination over the surviving peer replicas when it is
    not.  With [status_retry_us > 0] unresolved queries are re-issued
    each period (bounded), covering lost status traffic; otherwise
    resolution is re-triggered by the next {!recover}. *)
let rec resolve_in_doubt ?(tries = 0) eng ~node:n ~partition:p txid =
  let nd = eng.nodes.(n) in
  if nd.alive && Partition_server.has_tx (server eng ~node:n ~partition:p) txid then begin
    if eng.config.Config.broken_lost_commit then
      (* Seeded bug (validation): presume abort without consulting the
         decision log — drops commits whose decision message was lost. *)
      apply_resolution eng ~node:n ~partition:p txid D_abort
    else if eng.config.Config.broken_double_resolution then
      (* Seeded bug (validation): presume commit at the prepare
         timestamp — resolves coordinator-aborted transactions the
         other way. *)
      (match Partition_server.pending_ts (server eng ~node:n ~partition:p) txid with
       | Some ts -> apply_resolution eng ~node:n ~partition:p txid (D_commit ts)
       | None -> apply_resolution eng ~node:n ~partition:p txid D_abort)
    else begin
      let origin = Txid.origin txid in
      let retry_later () =
        (* Failure-detection period; bounded so a permanently blocked
           transaction (coordinator crash-stopped, no peer evidence)
           cannot keep the event queue alive forever. *)
        if eng.config.Config.status_retry_us > 0 && tries < 100 then
          Sim.schedule eng.sim ~delay:eng.config.Config.status_retry_us (fun () ->
              resolve_in_doubt ~tries:(tries + 1) eng ~node:n ~partition:p txid)
      in
      if eng.nodes.(origin).alive then begin
        send eng ~kind:Obs.Trace.M_status_req ~ctx:(ctx_of_txid txid)
          ~dcost:eng.config.Config.cost_coord_op ~src:n ~dst:origin (fun () ->
            let ond = eng.nodes.(origin) in
            Cpu.exec ond.cpu ~cost:eng.config.Config.cost_coord_op (fun () ->
                match Txid.Tbl.find_opt ond.decisions txid with
                | Some d ->
                  send eng ~kind:Obs.Trace.M_status_reply ~ctx:(ctx_of_txid txid)
                    ~src:origin ~dst:n (fun () ->
                      apply_resolution eng ~node:n ~partition:p txid d)
                | None ->
                  if Txid.Tbl.mem ond.active txid then begin
                    (* Still certifying: register the asker and reply the
                       moment the decision is logged (event-driven). *)
                    let ws =
                      Option.value ~default:[]
                        (Txid.Tbl.find_opt ond.status_waiters txid)
                    in
                    if not (List.mem (n, p) ws) then
                      Txid.Tbl.replace ond.status_waiters txid ((n, p) :: ws)
                  end
                  else
                    (* No log entry and no live transaction: under the
                       write-once log-then-broadcast discipline, no commit
                       decision can exist — presumed abort. *)
                    send eng ~kind:Obs.Trace.M_status_reply
                      ~ctx:(ctx_of_txid txid) ~src:origin ~dst:n
                      (fun () -> apply_resolution eng ~node:n ~partition:p txid D_abort)));
        retry_later ()
      end
      else begin
        (* Cooperative termination: the coordinator is down, so query the
           partition's surviving peer replicas for evidence.  Any applied
           commit is decisive; unanimous absence is decisive the other
           way (a prepared-but-undecided transaction still holds pending
           state at every live acceptor, so absence everywhere proves no
           commit was applied); otherwise the in-doubt window genuinely
           blocks until the coordinator recovers. *)
        let keys = Partition_server.pending_keys (server eng ~node:n ~partition:p) txid in
        let peers =
          Array.to_list (Placement.replicas eng.placement p)
          |> List.filter (fun r -> r <> n && eng.nodes.(r).alive)
        in
        (match peers with
         | [] -> () (* blocked: no surviving evidence; retried / re-triggered *)
         | peers ->
           let expected = List.length peers in
           let absent = ref 0 and settled = ref false in
           List.iter
             (fun r ->
               send eng ~kind:Obs.Trace.M_status_req ~ctx:(ctx_of_txid txid)
                 ~dcost:eng.config.Config.cost_coord_op ~src:n ~dst:r (fun () ->
                   let rnd = eng.nodes.(r) in
                   Cpu.exec rnd.cpu ~cost:eng.config.Config.cost_coord_op (fun () ->
                       let st =
                         Partition_server.status_of
                           (server eng ~node:r ~partition:p)
                           txid ~keys
                       in
                       send eng ~kind:Obs.Trace.M_status_reply
                         ~ctx:(ctx_of_txid txid) ~src:r ~dst:n (fun () ->
                           if not !settled then
                             match st with
                             | `Committed ct ->
                               settled := true;
                               apply_resolution eng ~node:n ~partition:p txid (D_commit ct)
                             | `None ->
                               incr absent;
                               if !absent >= expected then begin
                                 settled := true;
                                 apply_resolution eng ~node:n ~partition:p txid D_abort
                               end
                             | `Pending -> ()))))
             peers);
        retry_later ()
      end
    end
  end

(** Participant-side AC5 arming: a replica that prepared a remote
    transaction starts termination if no decision arrived within the
    window. *)
let arm_termination eng ~node:n ~partition:p txid =
  Sim.schedule eng.sim ~delay:eng.config.Config.termination_timeout_us (fun () ->
      resolve_in_doubt eng ~node:n ~partition:p txid)

(* ------------------------------------------------------------------ *)
(* Dependency graph                                                    *)
(* ------------------------------------------------------------------ *)

(** Register that [tx] speculatively depends on local-committed [dep]
    (read-from or write-stacking).  Imports [dep]'s FFC and OLC minimum
    (Alg. 1, lines 13-14). *)
let add_dep (tx : tx) (dep : tx) =
  if not (Txid.Set.mem dep.id tx.deps) then begin
    tx.deps <- Txid.Set.add dep.id tx.deps;
    tx.all_deps <- Txid.Set.add dep.id tx.all_deps;
    dep.dependents <- tx :: dep.dependents
  end;
  olc_put tx dep.id (olc_min dep);
  if dep.ffc > tx.ffc then tx.ffc <- dep.ffc

(* ------------------------------------------------------------------ *)
(* Abort and commit application                                        *)
(* ------------------------------------------------------------------ *)

let for_each_remote_replica eng tx f =
  List.iter
    (fun (p, _) ->
      Array.iter
        (fun r -> if r <> tx.origin then f r p)
        (Placement.replicas eng.placement p))
    tx.groups

let local_partitions_of eng tx =
  List.filter_map
    (fun (p, writes) ->
      if Placement.replicates eng.placement ~node:tx.origin ~partition:p then
        Some (p, writes)
      else None)
    tx.groups

(** Abort [tx]: cascade to dependents (SPSI-4), remove its speculative
    versions from the local replicas and the cache partition, and notify
    every remote replica involved in its global certification.
    Idempotent; safe to call from any protocol path. *)
let rec abort_tx eng tx reason =
  match tx.state with
  | Aborted _ | Committed -> ()
  | Active | Local_committed ->
    let nd = eng.nodes.(tx.origin) in
    if tx.state = Local_committed then eng.spec_live <- eng.spec_live - 1;
    tx.state <- Aborted reason;
    (* Log the abort decision before any removal is broadcast, so a
       status query can never observe a decided-but-unlogged abort. *)
    log_decision eng tx D_abort;
    Stats.record_abort nd.stats reason;
    (* Rollback is not free: removing speculative versions and unwinding
       dependents consumes node CPU (fire-and-forget: it delays
       subsequent work on this node). *)
    Cpu.exec nd.cpu ~cost:(eng.config.Config.cost_apply_key * tx.n_wkeys) nop;
    if tx.spec_exposed then nd.stats.Stats.ext_misspec <- nd.stats.Stats.ext_misspec + 1;
    let dependents = tx.dependents in
    tx.dependents <- [];
    List.iter (fun d -> abort_tx eng d Dependency_aborted) dependents;
    List.iter
      (fun (p, _) -> Partition_server.abort (server eng ~node:tx.origin ~partition:p) tx.id)
      (local_partitions_of eng tx);
    Partition_server.abort nd.cache tx.id;
    if tx.global_started then
      for_each_remote_replica eng tx (fun r p ->
          send_work eng ~kind:Obs.Trace.M_abort ~ctx:(ctx_of_txid tx.id)
            ~src:tx.origin ~dst:r (fun () ->
              let srv = server eng ~node:r ~partition:p in
              Dispatch_cpu
                ( eng.config.Config.cost_apply_key
                  * Partition_server.pending_key_count srv tx.id,
                  fun () -> Partition_server.abort ~tombstone:true srv tx.id )));
    Txid.Tbl.remove nd.active tx.id;
    Obs.Trace.count_abort eng.trace (taxonomy_of_abort reason);
    if Obs.Trace.enabled eng.trace then begin
      let now = Sim.now eng.sim in
      Obs.Trace.instant eng.trace ~kind:Obs.Trace.I_abort ~pid:(pid_of eng tx.origin)
        ~tid:(Obs.Trace.coord_tid tx.origin) ~time:now ~a:(Txid.origin tx.id)
        ~b:(Txid.number tx.id)
        ~note:(abort_reason_to_string reason) ();
      Obs.Trace.span_end eng.trace tx.span ~t1:now
    end;
    emit eng (Ev_abort { id = tx.id; reason; time = Sim.now eng.sim });
    ignore (Ivar.fill_if_empty tx.outcome (Tx_aborted_out reason));
    notify tx

(** Final commit with timestamp [ct]: resolve or abort dependents
    (Alg. 1, lines 37-43), apply at local replicas, drop cached entries,
    and broadcast the decision to remote replicas. *)
let commit_apply eng tx ct =
  let nd = eng.nodes.(tx.origin) in
  tx.ct <- ct;
  if tx.state = Local_committed then eng.spec_live <- eng.spec_live - 1;
  tx.state <- Committed;
  (* Log-then-broadcast: the commit decision hits the persistent log
     before any decision message leaves the coordinator (AC3). *)
  log_decision eng tx (D_commit ct);
  tx.ffc <- ct;
  olc_clear tx;
  let dependents = tx.dependents in
  tx.dependents <- [];
  List.iter
    (fun d ->
      if not (is_aborted d) then
        if d.rs >= ct then begin
          d.deps <- Txid.Set.remove tx.id d.deps;
          olc_remove d tx.id;
          if ct > d.ffc then d.ffc <- ct;
          notify d
        end
        else abort_tx eng d Snapshot_too_old)
    dependents;
  Cpu.exec nd.cpu ~cost:(eng.config.Config.cost_apply_key * tx.n_wkeys) nop;
  List.iter
    (fun (p, _) -> Partition_server.commit (server eng ~node:tx.origin ~partition:p) tx.id ~ct)
    (local_partitions_of eng tx);
  if tx.unsafe then Partition_server.commit nd.cache tx.id ~ct;
  List.iter
    (fun (p, writes) ->
      Array.iter
        (fun r ->
          if r <> tx.origin then
            send_work eng ~kind:Obs.Trace.M_commit ~ctx:(ctx_of_txid tx.id)
              ~src:tx.origin ~dst:r (fun () ->
                let srv = server eng ~node:r ~partition:p in
                if eng.recovery_on && not (Partition_server.has_tx srv tx.id) then
                  (* The replica lost the prepare across a crash window;
                     the decision message carries the write set, so the
                     recovered replica installs the committed versions
                     directly instead of dropping the decision. *)
                  Dispatch_cpu
                    ( eng.config.Config.cost_apply_key * List.length writes,
                      fun () ->
                        Partition_server.install_committed srv ~txid:tx.id ~ct writes )
                else
                  Dispatch_cpu
                    ( eng.config.Config.cost_apply_key
                      * Partition_server.pending_key_count srv tx.id,
                      fun () -> Partition_server.commit srv tx.id ~ct )))
        (Placement.replicas eng.placement p))
    tx.groups;
  nd.stats.Stats.commits <- nd.stats.Stats.commits + 1;
  Txid.Tbl.remove nd.active tx.id;
  if Obs.Trace.enabled eng.trace then begin
    let now = Sim.now eng.sim in
    Obs.Trace.instant eng.trace ~kind:Obs.Trace.I_commit ~pid:(pid_of eng tx.origin)
      ~tid:(Obs.Trace.coord_tid tx.origin) ~time:now ~a:(Txid.origin tx.id)
      ~b:(Txid.number tx.id) ();
    Obs.Trace.span_end eng.trace tx.span ~t1:now
  end;
  emit eng (Ev_commit { id = tx.id; ct; time = Sim.now eng.sim });
  ignore (Ivar.fill_if_empty tx.outcome (Tx_committed ct));
  notify tx

(* ------------------------------------------------------------------ *)
(* Transactional API (fiber context)                                   *)
(* ------------------------------------------------------------------ *)

let begin_tx eng ~origin =
  let nd = eng.nodes.(origin) in
  (* Crash-stop: a dead node serves nothing, including [begin].  Without
     this a client fiber racing a planned crash can open a transaction at
     a down node; its prepares are dropped at the (dead) sender, yet the
     local prepare it installs survives into the recovered incarnation as
     an unresolvable in-doubt entry — the recover sweep rightly skips
     transactions the (now-alive) origin still lists as active. *)
  if not nd.alive then raise (Tx_abort Node_failure);
  nd.next_tx <- nd.next_tx + 1;
  let id = Txid.make ~origin ~number:nd.next_tx in
  let rs = Clock.now nd.clock in
  let tx =
    make_tx ~id ~origin ~rs ~start_time:(Sim.now eng.sim)
      ~sr:eng.config.Config.speculative_reads
  in
  Txid.Tbl.replace nd.active id tx;
  nd.stats.Stats.started <- nd.stats.Stats.started + 1;
  if Obs.Trace.enabled eng.trace then
    tx.span <-
      Obs.Trace.span_begin eng.trace ~kind:Obs.Trace.S_tx ~pid:(pid_of eng origin)
        ~tid:(Obs.Trace.coord_tid origin) ~t0:(Sim.now eng.sim) ~a:origin
        ~b:nd.next_tx ();
  emit eng (Ev_begin { id; origin; rs; time = Sim.now eng.sim });
  tx

(** Consume a read result: update FFC/OLCSet and enforce the speculative
    snapshot-safety wait [min(OLCSet) >= FFC] (Alg. 1, line 15). *)
let rec read eng tx key =
  check_live tx;
  let nd = eng.nodes.(tx.origin) in
  match buffered tx key with
  | Some v -> Some v (* read-your-writes from the private buffer *)
  | None ->
    let p = Key.partition key in
    nd.stats.Stats.reads <- nd.stats.Stats.reads + 1;
    (* Client-side transaction logic shares the node's CPU (the load
       injector runs on the server nodes, as in the paper's setup). *)
    charge nd eng.config.Config.cost_tx_logic;
    check_live tx;
    let read_started = Sim.now eng.sim in
    let rspan =
      if Obs.Trace.enabled eng.trace then
        Obs.Trace.span_begin eng.trace ~kind:Obs.Trace.S_read
          ~pid:(pid_of eng tx.origin) ~tid:(Obs.Trace.coord_tid tx.origin)
          ~t0:read_started ~a:(Txid.origin tx.id) ~b:(Txid.number tx.id) ()
      else -1
    in
    (* Close this attempt's span before recursing on a retry, so every
       attempt gets its own [read] span. *)
    let retry () =
      Obs.Trace.span_end eng.trace rspan ~t1:(Sim.now eng.sim);
      read eng tx key
    in
    let iv = Ivar.create () in
    let origin_local = Placement.replicates eng.placement ~node:tx.origin ~partition:p in
    let via =
      if origin_local then `Local
      else if tx.sr && Partition_server.has_visible nd.cache ~rs:tx.rs key then `Cache
      else `Remote
    in
    (match via with
     | `Local ->
       Partition_server.read ~allow_spec:tx.sr ~reader:(ctx_of_txid tx.id)
         (server eng ~node:tx.origin ~partition:p)
         ~rs:tx.rs ~reader_origin:tx.origin key (Ivar.fill iv)
     | `Cache ->
       Partition_server.read ~allow_spec:tx.sr ~reader:(ctx_of_txid tx.id)
         nd.cache ~rs:tx.rs ~reader_origin:tx.origin key (Ivar.fill iv)
     | `Remote ->
       nd.stats.Stats.remote_reads <- nd.stats.Stats.remote_reads + 1;
       let target =
         let preferred = eng.nearest.(tx.origin).(p) in
         if eng.nodes.(preferred).alive then preferred
         else begin
           (* Fail-over: read from the closest live replica instead. *)
           let best = ref (-1) and best_lat = ref max_int in
           Array.iter
             (fun r ->
               if eng.nodes.(r).alive then begin
                 let lat = Network.latency_us eng.net ~src:tx.origin ~dst:r in
                 if lat < !best_lat then begin
                   best := r;
                   best_lat := lat
                 end
               end)
             (Placement.replicas eng.placement p);
           if !best < 0 then preferred else !best
         end
       in
       let send_req () =
         send eng ~kind:Obs.Trace.M_read_req ~ctx:(ctx_of_txid tx.id)
           ~dcost:eng.config.Config.cost_read ~src:tx.origin ~dst:target (fun () ->
             Partition_server.read
               (server eng ~node:target ~partition:p)
               ~rs:tx.rs ~reader_origin:tx.origin
               ~reader:(ctx_of_txid tx.id) key
               (fun r ->
                 send eng ~kind:Obs.Trace.M_read_reply ~ctx:(ctx_of_txid tx.id)
                   ~src:target ~dst:tx.origin
                   (fun () -> ignore (Ivar.fill_if_empty iv r))))
       in
       if not eng.nodes.(target).alive then
         (* Perfect failure detection, reader side: every replica of the
            partition is down (possible at rf=1), so there is nobody to
            ask — install the failure sentinel now instead of sending a
            request that the dead node will never answer.  The guard
            below would eventually do the same, but only when retry
            periods are configured; the bounded model checker runs with
            them off. *)
         ignore (Ivar.fill_if_empty iv read_failed_reply)
       else send_req ();
       if eng.recovery_on || eng.fault <> None then begin
         (* Register for crash-time completion (see the node field doc).
            Compact once the list accumulates resolved entries so long
            runs stay O(in-flight), not O(total reads). *)
         nd.outstanding_reads := (target, iv) :: !(nd.outstanding_reads);
         incr nd.outstanding_read_count;
         if !(nd.outstanding_read_count) >= 64 then begin
           nd.outstanding_reads :=
             List.filter (fun (_, iv) -> not (Ivar.is_full iv)) !(nd.outstanding_reads);
           nd.outstanding_read_count := List.length !(nd.outstanding_reads)
         end
       end;
       if eng.config.Config.status_retry_us > 0 then begin
         (* Failure detection for remote reads: the request or its reply
            may be lost to a crash, cut link or message drop.  Re-issue
            the (idempotent) read each period; after three unanswered
            windows install the failure sentinel, which aborts the
            transaction below.  A late real reply loses the ivar race
            and is absorbed. *)
         let rec guard tries =
           Sim.schedule eng.sim ~delay:eng.config.Config.status_retry_us (fun () ->
               if not (Ivar.is_full iv) then
                 if tries >= 2 then ignore (Ivar.fill_if_empty iv read_failed_reply)
                 else begin
                   send_req ();
                   guard (tries + 1)
                 end)
         in
         guard 0
       end);
    let r = Fiber.await iv in
    check_live tx;
    if r == read_failed_reply then begin
      (* The remote replica (or every path to it) stayed unresponsive
         past the detection window: abort and let the client retry
         against the post-fail-over configuration. *)
      Obs.Trace.span_end eng.trace rspan ~t1:(Sim.now eng.sim);
      abort_tx eng tx Node_failure;
      raise (Tx_abort Node_failure)
    end;
    tx.reads_done <- tx.reads_done + 1;
    let finish (r : Partition_server.read_reply) speculative =
      if not eng.config.Config.unsafe_speculation then begin
        if not (olc_min tx >= tx.ffc || is_aborted tx) then begin
          nd.stats.Stats.olc_blocks <- nd.stats.Stats.olc_blocks + 1;
          (* The snapshot-safety guard actually blocks: record the stall
             as its own span (Alg. 1, line 15). *)
          let ospan =
            if Obs.Trace.enabled eng.trace then
              Obs.Trace.span_begin eng.trace ~kind:Obs.Trace.S_olc_wait
                ~pid:(pid_of eng tx.origin) ~tid:(Obs.Trace.coord_tid tx.origin)
                ~t0:(Sim.now eng.sim) ~a:(Txid.origin tx.id)
                ~b:(Txid.number tx.id) ()
            else -1
          in
          wait_until tx (fun () -> olc_min tx >= tx.ffc || is_aborted tx);
          Obs.Trace.span_end eng.trace ospan ~t1:(Sim.now eng.sim)
        end
      end;
      Obs.Trace.span_end eng.trace rspan ~t1:(Sim.now eng.sim);
      check_live tx;
      emit eng
        (Ev_read
           {
             id = tx.id;
             key;
             writer = r.writer;
             version_ts = (match r.src with `Committed ts -> ts | _ -> 0);
             speculative;
             start_time = read_started;
             time = Sim.now eng.sim;
           });
      (* Serializable isolation: remember the observed value so the read
         can be promoted to a write at certification time. *)
      (match eng.config.Config.isolation, r.value with
       | Config.Serializable, Some v ->
         record_read tx key v
       | Config.Serializable, None | Config.Snapshot_isolation, _ -> ());
      r.value
    in
    (match r.src, via with
     | `Missing, `Cache ->
       (* The cached version vanished while we were queued; retry (the
          cache check will now fail and the read goes remote). *)
       retry ()
     | `Missing, (`Local | `Remote) -> finish r false
     | `Committed ts, _ ->
       if ts > tx.ffc then tx.ffc <- ts;
       finish r false
     | `Speculative, _ ->
       let wid = match r.writer with Some w -> w | None -> assert false in
       (* The writer is a same-node transaction under SPSI; under the
          unsafe-speculation strawman it can live on any node. *)
       let writer_home = eng.nodes.(Txid.origin wid) in
       (match Txid.Tbl.find_opt writer_home.active wid with
        | None ->
          (* Writer resolved (committed or aborted) while the reply was in
             flight; re-read to observe its final outcome. *)
          retry ()
        | Some tw ->
          (match tw.state with
           | Local_committed ->
             add_dep tx tw;
             nd.stats.Stats.spec_reads <- nd.stats.Stats.spec_reads + 1;
             if via = `Cache then nd.stats.Stats.cache_reads <- nd.stats.Stats.cache_reads + 1;
             finish r true
           | Committed ->
             if tw.ct > tx.ffc then tx.ffc <- tw.ct;
             finish r false
           | Aborted _ -> retry ()
           | Active -> assert false)))

let write eng tx key value =
  check_live tx;
  buffer tx key value;
  emit eng (Ev_write { id = tx.id; key; time = Sim.now eng.sim })

(* Group the write set by partition — ascending partitions, each
   partition's writes in insertion order.  Sort-based: a permutation
   over an index array replaces the scratch hash table the previous
   version allocated per commit (this runs once per update
   transaction, squarely on the commit hot path). *)
let group_writes tx =
  match tx.wkeys with
  | [] -> []
  | [ key ] -> [ (Key.partition key, [ (key, buffered_exn tx key) ]) ]
  | wkeys ->
    (* [wkeys] is reverse insertion order: array index 0 holds the most
       recent write, so ascending insertion order = descending index. *)
    let keys = Array.of_list wkeys in
    let n = Array.length keys in
    let idx = Array.init n (fun i -> i) in
    Array.sort
      (fun a b ->
        let c = Int.compare (Key.partition keys.(a)) (Key.partition keys.(b)) in
        if c <> 0 then c else Int.compare b a)
      idx;
    (* Walk the sorted permutation backwards, consing: partitions come
       out ascending, writes within each partition in insertion order. *)
    let groups = ref [] and writes = ref [] in
    let cur_p = ref (Key.partition keys.(idx.(n - 1))) in
    for i = n - 1 downto 0 do
      let key = keys.(idx.(i)) in
      let p = Key.partition key in
      if p <> !cur_p then begin
        groups := (!cur_p, !writes) :: !groups;
        writes := [];
        cur_p := p
      end;
      writes := (key, buffered_exn tx key) :: !writes
    done;
    (!cur_p, !writes) :: !groups

let externalize eng tx =
  if eng.config.Config.externalize_local_commit && not tx.spec_exposed then begin
    let nd = eng.nodes.(tx.origin) in
    tx.spec_exposed <- true;
    nd.stats.Stats.spec_commits <- nd.stats.Stats.spec_commits + 1;
    if Obs.Trace.enabled eng.trace then
      Obs.Trace.instant eng.trace ~kind:Obs.Trace.I_spec_commit
        ~pid:(pid_of eng tx.origin) ~tid:(Obs.Trace.coord_tid tx.origin)
        ~time:(Sim.now eng.sim) ~a:(Txid.origin tx.id) ~b:(Txid.number tx.id) ();
    ignore (Ivar.fill_if_empty tx.spec_commit (Sim.now eng.sim))
  end

(** SPSI-4 wait: block until every speculative dependency has resolved,
    recording the stall as a [dep-wait] span when there was anything to
    wait for. *)
let dep_wait eng tx =
  let dspan =
    if Obs.Trace.enabled eng.trace && not (Txid.Set.is_empty tx.deps) then
      Obs.Trace.span_begin eng.trace ~kind:Obs.Trace.S_dep_wait
        ~pid:(pid_of eng tx.origin) ~tid:(Obs.Trace.coord_tid tx.origin)
        ~t0:(Sim.now eng.sim) ~a:(Txid.origin tx.id) ~b:(Txid.number tx.id) ()
    else -1
  in
  wait_until tx (fun () -> Txid.Set.is_empty tx.deps || is_aborted tx);
  Obs.Trace.span_end eng.trace dspan ~t1:(Sim.now eng.sim)

(** Commit protocol of Algorithm 1: local certification (local 2PC over
    local replicas plus the cache partition), local commit, global
    certification with synchronous master-slave replication, dependency
    resolution, and final commit.  Returns the final commit timestamp;
    raises {!Types.Tx_abort} on any abort. *)
let commit eng tx =
  check_live tx;
  let nd = eng.nodes.(tx.origin) in
  charge nd eng.config.Config.cost_coord_op;
  check_live tx;
  if is_read_only tx then begin
    (* A read-only transaction may still have speculative dependencies;
       SPSI-4 requires them resolved before confirming to the client. *)
    dep_wait eng tx;
    check_live tx;
    externalize eng tx;
    tx.state <- Committed;
    tx.ct <- tx.rs;
    nd.stats.Stats.commits <- nd.stats.Stats.commits + 1;
    nd.stats.Stats.read_only_commits <- nd.stats.Stats.read_only_commits + 1;
    Txid.Tbl.remove nd.active tx.id;
    if Obs.Trace.enabled eng.trace then begin
      let now = Sim.now eng.sim in
      Obs.Trace.instant eng.trace ~kind:Obs.Trace.I_commit ~pid:(pid_of eng tx.origin)
        ~tid:(Obs.Trace.coord_tid tx.origin) ~time:now ~a:(Txid.origin tx.id)
        ~b:(Txid.number tx.id) ();
      Obs.Trace.span_end eng.trace tx.span ~t1:now
    end;
    emit eng (Ev_commit { id = tx.id; ct = tx.ct; time = Sim.now eng.sim });
    ignore (Ivar.fill_if_empty tx.outcome (Tx_committed tx.ct));
    notify tx;
    tx.ct
  end
  else begin
    (* Read promotion (Serializable): update transactions re-write every
       value they read, turning read-write conflicts into write-write
       conflicts that SI certification rejects. *)
    if eng.config.Config.isolation = Config.Serializable then
      List.iter
        (fun key ->
          if Option.is_none (buffered tx key) then begin
            buffer tx key (recorded_exn tx key);
            emit eng (Ev_write { id = tx.id; key; time = Sim.now eng.sim })
          end)
        (List.rev tx.rset_keys);
    let groups = group_writes tx in
    tx.groups <- groups;
    let n_writes = tx.n_wkeys in
    charge nd (eng.config.Config.cost_prepare_key * n_writes);
    check_live tx;
    let cspan =
      if Obs.Trace.enabled eng.trace then
        Obs.Trace.span_begin eng.trace ~kind:Obs.Trace.S_local_cert
          ~pid:(pid_of eng tx.origin) ~tid:(Obs.Trace.coord_tid tx.origin)
          ~t0:(Sim.now eng.sim) ~a:(Txid.origin tx.id) ~b:(Txid.number tx.id) ()
      else -1
    in
    (* ---- Local certification (atomic within this event) ---- *)
    let lc = ref (tx.rs + 1) in
    let wdeps = ref Txid.Set.empty in
    let conflict = ref false in
    let nonlocal_writes = ref [] in
    List.iter
      (fun (p, writes) ->
        if not !conflict then
          if Placement.replicates eng.placement ~node:tx.origin ~partition:p then begin
            match
              Partition_server.prepare ~origin_spec:tx.sr
                (server eng ~node:tx.origin ~partition:p)
                ~txid:tx.id ~origin:tx.origin ~rs:tx.rs ~writes
            with
            | Partition_server.Conflict _ -> conflict := true
            | Partition_server.Prepared { ts; wdeps = d } ->
              if ts > !lc then lc := ts;
              List.iter (fun w -> wdeps := Txid.Set.add w !wdeps) d
          end
          else nonlocal_writes := List.rev_append writes !nonlocal_writes)
      groups;
    (* The cache partition always takes part in the local 2PC: it is
       what orders same-node writers of non-local keys, whatever their
       speculation mode (only speculative *reading* of its content is
       gated).  See Alg. 1, line 18. *)
    (* Accumulated with [rev_append] above; one reversal here (the only
       consumption site) restores ascending-partition program order, so
       the cache partition sees a canonical write order independent of
       how the accumulator was built. *)
    nonlocal_writes := List.rev !nonlocal_writes;
    if (not !conflict) && !nonlocal_writes <> [] then begin
      (* Unsafe transaction: its non-local updates go to the cache
         partition, which takes part in the local 2PC (Alg. 1, l. 18). *)
      match
        Partition_server.prepare ~origin_spec:tx.sr nd.cache ~txid:tx.id
          ~origin:tx.origin ~rs:tx.rs ~writes:!nonlocal_writes
      with
      | Partition_server.Conflict _ -> conflict := true
      | Partition_server.Prepared { ts; wdeps = d } ->
        if ts > !lc then lc := ts;
        List.iter (fun w -> wdeps := Txid.Set.add w !wdeps) d
    end;
    if !conflict then begin
      Obs.Trace.span_end eng.trace cspan ~t1:(Sim.now eng.sim);
      abort_tx eng tx Local_conflict;
      raise (Tx_abort Local_conflict)
    end;
    Txid.Set.iter
      (fun wid ->
        match Txid.Tbl.find_opt nd.active wid with
        | Some dep when not (is_aborted dep) -> add_dep tx dep
        | Some _ | None -> ())
      !wdeps;
    if !nonlocal_writes <> [] then begin
      tx.unsafe <- true;
      olc_put tx tx.id tx.rs (* Alg. 1, line 24 *)
    end;
    tx.lc <- !lc;
    eng.spec_live <- eng.spec_live + 1;
    tx.state <- Local_committed;
    List.iter
      (fun (p, _) ->
        Partition_server.local_commit
          (server eng ~node:tx.origin ~partition:p)
          tx.id ~lc:!lc)
      (local_partitions_of eng tx);
    if tx.unsafe then Partition_server.local_commit nd.cache tx.id ~lc:!lc;
    Obs.Trace.span_end eng.trace cspan ~t1:(Sim.now eng.sim);
    if Obs.Trace.enabled eng.trace then
      Obs.Trace.instant eng.trace ~kind:Obs.Trace.I_local_commit
        ~pid:(pid_of eng tx.origin) ~tid:(Obs.Trace.coord_tid tx.origin)
        ~time:(Sim.now eng.sim) ~a:(Txid.origin tx.id) ~b:(Txid.number tx.id) ();
    emit eng
      (Ev_local_commit { id = tx.id; lc = !lc; unsafe = tx.unsafe; time = Sim.now eng.sim });
    externalize eng tx;
    (* ---- Global certification + synchronous replication ---- *)
    tx.global_started <- true;
    (* The dependencies declared to remote replicas: everything the
       origin ordered this transaction after (fixed at this point). *)
    let declared_deps = tx.all_deps in
    (* The delivery-time epoch guard in [send] covers the network hop,
       but participants defer the prepare install one more step through
       their CPU; recheck both incarnations at install time — the
       coordinator's (a crash-recover window between delivery and
       processing must not resurrect a dead incarnation's prepare after
       the recovery sweep already ran) and the participant's own (work
       consumed but not yet processed when it crashed was volatile CPU
       state and died with the incarnation; the restarted node must not
       install a prepare whose decision traffic was dropped while it was
       down). *)
    let origin_epoch = eng.nodes.(tx.origin).epoch in
    (* Perfect failure detection, coordinator side: when a write
       partition's master is dead and fail-over found no live replica to
       promote (possible at rf=1), the partition is simply unavailable —
       abort now rather than send prepares into the void.  Prepares to a
       dead node are dropped, so without this the certification blocks
       until the prepare timeout; under the bounded model checker, which
       disables timeouts to keep the state space finite, it blocks
       forever and shows up as a deadlock. *)
    if List.exists (fun (p, _) -> not eng.nodes.(master_of eng p).alive) groups
    then begin
      abort_tx eng tx Node_failure;
      raise (Tx_abort Node_failure)
    end;
    let expected = ref 0 in
    let reply_handler outcome =
      if not (is_aborted tx) then begin
        (match outcome with
         | `Prepared ts ->
           if ts > tx.max_proposal then tx.max_proposal <- ts;
           tx.pending_prepares <- tx.pending_prepares - 1
         | `Aborted -> tx.prepare_failed <- true);
        notify tx
      end
    in
    let send_replicate ~from ~nw slave p writes =
      send_work eng ~kind:Obs.Trace.M_replicate ~ctx:(ctx_of_txid tx.id)
        ~src:from ~dst:slave (fun () ->
          let snd = eng.nodes.(slave) in
          let snd_epoch = snd.epoch in
          let srv = server eng ~node:slave ~partition:p in
          let dcost = eng.config.Config.cost_prepare_key * nw in
          let dreq =
            {
              Partition_server.btxid = tx.id;
              borigin = tx.origin;
              brs = tx.rs;
              bwrites = writes;
              bstack_over = declared_deps;
              bchains = [||];
            }
          in
          Dispatch_prepare
            {
              dcost;
              dsrv = srv;
              dreq;
              dpre =
                (fun () ->
                  eng.nodes.(tx.origin).epoch = origin_epoch && snd.epoch = snd_epoch
                  && begin
                       (* Remote prepares evict conflicting local
                          speculation and its dependents (Alg. 2,
                          replicate handler). *)
                       List.iter
                         (fun victim ->
                           match Txid.Tbl.find_opt snd.active victim with
                           | Some vtx -> abort_tx eng vtx Evicted
                           | None -> ())
                         (Partition_server.evict_candidates srv dreq);
                       true
                     end);
              dpost =
                (fun result ->
                  let outcome =
                    match result with
                    | Partition_server.Prepared { ts; _ } -> `Prepared ts
                    | Partition_server.Conflict _ -> `Aborted
                  in
                  (* Participant-side AC5: a prepare held past the window
                     without a decision starts cooperative termination. *)
                  (match outcome with
                   | `Prepared _ when eng.config.Config.termination_timeout_us > 0 ->
                     arm_termination eng ~node:slave ~partition:p tx.id
                   | `Prepared _ | `Aborted -> ());
                  send_work eng ~kind:Obs.Trace.M_prepare_reply
                    ~ctx:(ctx_of_txid tx.id) ~src:slave
                    ~dst:tx.origin (fun () ->
                      Dispatch_inline (fun () -> reply_handler outcome)));
            })
    in
    List.iter
      (fun (p, writes) ->
        let m = master_of eng p in
        let slaves = live_slaves eng p in
        let nw = List.length writes in
        if m = tx.origin then begin
          (* We are the master: replicate the prepare to our slaves. *)
          List.iter
            (fun s ->
              incr expected;
              send_replicate ~from:tx.origin ~nw s p writes)
            slaves
        end
        else begin
          incr expected (* the master's own reply *);
          List.iter (fun s -> if s <> tx.origin then incr expected) slaves;
          send_work eng ~kind:Obs.Trace.M_prepare ~ctx:(ctx_of_txid tx.id)
            ~src:tx.origin ~dst:m (fun () ->
              let mnd = eng.nodes.(m) in
              let m_epoch = mnd.epoch in
              Dispatch_prepare
                {
                  dcost = eng.config.Config.cost_prepare_key * nw;
                  dsrv = server eng ~node:m ~partition:p;
                  dreq =
                    {
                      Partition_server.btxid = tx.id;
                      borigin = tx.origin;
                      brs = tx.rs;
                      bwrites = writes;
                      bstack_over = declared_deps;
                      bchains = [||];
                    };
                  dpre =
                    (fun () ->
                      eng.nodes.(tx.origin).epoch = origin_epoch && mnd.epoch = m_epoch);
                  dpost =
                    (function
                      | Partition_server.Conflict _ ->
                        send_work eng ~kind:Obs.Trace.M_prepare_reply
                          ~ctx:(ctx_of_txid tx.id) ~src:m
                          ~dst:tx.origin (fun () ->
                            Dispatch_inline (fun () -> reply_handler `Aborted))
                      | Partition_server.Prepared { ts; _ } ->
                        if eng.config.Config.termination_timeout_us > 0 then
                          arm_termination eng ~node:m ~partition:p tx.id;
                        List.iter
                          (fun s ->
                            if s <> tx.origin then send_replicate ~from:m ~nw s p writes)
                          slaves;
                        send_work eng ~kind:Obs.Trace.M_prepare_reply
                          ~ctx:(ctx_of_txid tx.id) ~src:m
                          ~dst:tx.origin (fun () ->
                            Dispatch_inline (fun () -> reply_handler (`Prepared ts))));
                })
        end)
      groups;
    tx.pending_prepares <- !expected;
    if eng.config.Config.prepare_timeout_us > 0 && !expected > 0 then
      (* Coordinator-side failure detection: prepares still outstanding
         past the window mean a participant (or the path to it) is gone;
         give up on the certification with a presumed abort rather than
         blocking forever on a lost reply. *)
      Sim.schedule eng.sim ~delay:eng.config.Config.prepare_timeout_us (fun () ->
          if
            (not (is_aborted tx))
            && tx.state = Types.Local_committed
            && tx.pending_prepares > 0
            && not tx.prepare_failed
          then begin
            tx.prepare_timed_out <- true;
            notify tx
          end);
    let rspan =
      if Obs.Trace.enabled eng.trace && !expected > 0 then
        Obs.Trace.span_begin eng.trace ~kind:Obs.Trace.S_repl_wait
          ~pid:(pid_of eng tx.origin) ~tid:(Obs.Trace.coord_tid tx.origin)
          ~t0:(Sim.now eng.sim) ~a:(Txid.origin tx.id) ~b:(Txid.number tx.id) ()
      else -1
    in
    wait_until tx (fun () ->
        tx.pending_prepares <= 0 || tx.prepare_failed || tx.prepare_timed_out
        || is_aborted tx);
    Obs.Trace.span_end eng.trace rspan ~t1:(Sim.now eng.sim);
    check_live tx;
    if tx.prepare_failed then begin
      abort_tx eng tx Remote_conflict;
      raise (Tx_abort Remote_conflict)
    end;
    if tx.prepare_timed_out && tx.pending_prepares > 0 then begin
      (* Presumed abort is safe here: with prepares still outstanding no
         commit decision exists anywhere, and participants that did
         prepare learn the abort directly or from the decision log. *)
      abort_tx eng tx Prepare_timeout;
      raise (Tx_abort Prepare_timeout)
    end;
    (* ---- SPSI-4: all speculative dependencies must resolve ---- *)
    dep_wait eng tx;
    check_live tx;
    let ct = max tx.lc tx.max_proposal in
    commit_apply eng tx ct;
    ct
  end

(** Await the final outcome of a transaction committed (or aborted) by
    another fiber. *)
let await_outcome tx = Fiber.await tx.outcome

(* ------------------------------------------------------------------ *)
(* Cluster-wide introspection                                          *)
(* ------------------------------------------------------------------ *)

let total_stats eng = Stats.sum (Array.to_list (Array.map (fun n -> n.stats) eng.nodes))

let total_commits eng =
  Array.fold_left (fun acc n -> acc + n.stats.Stats.commits) 0 eng.nodes

(** Coalescing-layer counters: flushes emitted, logical payloads they
    carried, and the flush-size histogram (index [min size 16]). *)
let batch_flushes eng = eng.batch_flushes
let batch_payloads eng = eng.batch_payloads
let batch_occupancy eng = Array.copy eng.batch_occ

(** Live speculation depth: transactions currently in [Local_committed]
    — locally committed, globally undecided.  A time-series gauge. *)
let live_spec_depth eng = eng.spec_live

(** Force-flush every open link queue.  Callers that change
    [Config.batch_window_us] live (the self-tuner's ladder exploration)
    drain first so no payload enqueued under the old window can be
    overtaken by a post-change unbatched send on the same link. *)
let flush_open_batches eng =
  Array.iteri
    (fun src row ->
      Array.iteri (fun dst b -> if b.bq_n > 0 then flush_batch eng ~src ~dst b) row)
    eng.batches

(** Aggregated batched-certification stats over every partition server:
    [(sweeps, swept prepares, occupancy histogram)] — see
    {!Partition_server.certify_batch}. *)
let cert_sweep_stats eng =
  let sweeps = ref 0 and items = ref 0 in
  let occ = Array.make 17 0 in
  Array.iter
    (fun nd ->
      (* lint: allow hashtbl-order — summing counters is order-insensitive *)
      Hashtbl.iter
        (fun _ s ->
          let sw, it, o = Partition_server.sweep_stats s in
          sweeps := !sweeps + sw;
          items := !items + it;
          Array.iteri (fun i v -> occ.(i) <- occ.(i) + v) o)
        nd.servers)
    eng.nodes;
  (!sweeps, !items, occ)

(** Approximate storage split: (data bytes, LastReader metadata bytes)
    summed over every replica — the §6.1 overhead measurement. *)
let storage_breakdown eng =
  let data = ref 0 and meta = ref 0 in
  Array.iter
    (fun nd ->
      (* lint: allow hashtbl-order — summing bytes is order-insensitive *)
      Hashtbl.iter
        (fun _ s ->
          let d, m = Mvstore.storage_bytes (Partition_server.store s) in
          data := !data + d;
          meta := !meta + m)
        nd.servers)
    eng.nodes;
  (!data, !meta)

(* ------------------------------------------------------------------ *)
(* Fault injection and fail-over (§5.6)                                 *)
(* ------------------------------------------------------------------ *)

(** Crash node [n].  With the paper's perfect-failure-detection
    assumption, every surviving node reacts immediately:

    - transactions originated at [n] are aborted cluster-wide (their
      pre-committed versions at other replicas are removed, unblocking
      readers; their clients are gone anyway);
    - in-flight transactions of other nodes whose certification involves
      a replica on [n] are aborted ([Node_failure]) and retried by their
      clients against the post-fail-over configuration;
    - for every partition mastered by [n], the closest live slave is
      promoted to master (synchronous replication makes any slave
      up-to-date for all committed and pre-committed state).

    Messages to and from [n] — including those already in flight — are
    dropped. *)
let crash eng n =
  let nd = eng.nodes.(n) in
  if nd.alive then begin
    nd.alive <- false;
    (* Abort n's own transactions: their clients died with the node, and
       their speculative state must not linger at the survivors. *)
    let local_txs =
      (* lint: allow hashtbl-order — sorted before the abort sweep so the
         cascade order (and hence the event schedule) is deterministic *)
      Txid.Tbl.fold (fun _ tx acc -> tx :: acc) nd.active []
      |> List.sort (fun (a : tx) b -> Txid.compare a.id b.id)
    in
    List.iter (fun tx -> abort_tx eng tx Node_failure) local_txs;
    (* The failure detector at every surviving replica drops pre-commits
       from n that the (dead) coordinator will never resolve.  abort_tx
       above already sent the removals for global_started transactions,
       but those sends are dropped at source now that n is dead — purge
       directly.  Under the recovery protocol the survivors instead HOLD
       the in-doubt state: the dead coordinator's decision log survives
       the crash, so these prepares are resolved — not presumed aborted —
       when it recovers (or earlier, by cooperative termination). *)
    if not eng.recovery_on then
      Array.iter
        (fun other ->
          if other.alive then
            (* lint: allow hashtbl-order — per-server purges touch disjoint
               stores; pending_txids itself is sorted *)
            Hashtbl.iter
              (fun _ srv ->
                List.iter
                  (fun txid ->
                    if Txid.origin txid = n then Partition_server.abort srv txid)
                  (Partition_server.pending_txids srv))
              other.servers)
        eng.nodes;
    (* Abort survivors' transactions that are waiting on replies from n
       (their expected-reply count can otherwise never be reached). *)
    Array.iter
      (fun other ->
        if other.alive && other.id <> n then begin
          let stuck =
            (* lint: allow hashtbl-order — sorted before the abort sweep *)
            Txid.Tbl.fold
              (fun _ tx acc ->
                let involves_n =
                  List.exists
                    (fun (p, _) ->
                      Array.exists (fun r -> r = n) (Placement.replicas eng.placement p))
                    tx.groups
                in
                if tx.global_started && tx.pending_prepares > 0 && involves_n then
                  tx :: acc
                else acc)
              other.active []
            |> List.sort (fun (a : tx) b -> Txid.compare a.id b.id)
          in
          List.iter (fun tx -> abort_tx eng tx Node_failure) stuck
        end)
      eng.nodes;
    (* Promote the closest live slave of every partition n mastered. *)
    for p = 0 to Placement.n_partitions eng.placement - 1 do
      if eng.cur_master.(p) = n then begin
        let candidates =
          Array.to_list (Placement.replicas eng.placement p)
          |> List.filter (fun r -> eng.nodes.(r).alive)
        in
        match candidates with
        | [] -> () (* partition lost: all replicas down *)
        | first :: _ -> eng.cur_master.(p) <- first
      end
    done;
    (* Complete in-flight remote reads the crash orphaned — requests to n
       and replies from n are dropped, so without this their client
       fibers would stay parked past quiescence.  Runs after the master
       promotions so a resuming client retries against the post-fail-over
       configuration.  Survivors' reads aimed at n get the failure
       sentinel (-> Node_failure abort, client retries); every read of
       n's own dead clients is completed too, so the fiber resumes,
       trips [check_live] and unwinds.  Fills run the fiber inline, so
       snapshot-and-reset each list before touching it. *)
    Array.iter
      (fun other ->
        let mine = List.rev !(other.outstanding_reads) in
        let keep =
          if other.id = n then []
          else List.filter (fun (target, _) -> target <> n) mine
        in
        other.outstanding_reads := List.rev keep;
        other.outstanding_read_count := List.length keep;
        List.iter
          (fun (target, iv) ->
            if (other.id = n || target = n) && not (Ivar.is_full iv) then
              ignore (Ivar.fill_if_empty iv read_failed_reply))
          mine)
      eng.nodes
  end

(** Ascending partition ids replicated at [nd] (deterministic sweep
    order for recovery). *)
let sorted_partitions nd =
  (* lint: allow hashtbl-order — sorted before use *)
  Hashtbl.fold (fun p _ acc -> p :: acc) nd.servers [] |> List.sort Int.compare

(** State transfer at recovery: copy the committed versions a replica
    missed while down from the first live peer replica of each of its
    partitions.  Modeled as an atomic snapshot copy (the interesting
    failure behaviour — in-doubt prepares — is handled separately by
    {!resolve_in_doubt}; decided-and-fully-applied state is plain data
    movement).  Skips every key the recovering replica already has a
    version of by the same writer, so in-doubt prepares are left for
    resolution and nothing is duplicated. *)
let catch_up eng n =
  List.iter
    (fun p ->
      match
        Array.to_list (Placement.replicas eng.placement p)
        |> List.find_opt (fun r -> r <> n && eng.nodes.(r).alive)
      with
      | None -> () (* sole replica: nothing was decided while it was down *)
      | Some src ->
        let src_store = Partition_server.store (server eng ~node:src ~partition:p) in
        let dst_store = Partition_server.store (server eng ~node:n ~partition:p) in
        List.iter
          (fun (key, (v : Version.t)) ->
            if Mvstore.find_version dst_store key v.Version.writer = None then
              Mvstore.insert_version dst_store key
                (Version.make ~writer:v.Version.writer ~state:Version.Committed
                   ~ts:v.Version.ts ~value:v.Version.value))
          (Mvstore.committed_versions src_store))
    (sorted_partitions eng.nodes.(n))

(** Restart a crashed node from its persistent state (crash-recover
    failures): committed and pre-committed store state plus the decision
    log survive; active transactions, speculation and the cache were
    volatile and are already gone (purged by {!crash}).  The node
    reclaims the masterships the static placement assigns it, catches up
    on the committed state it missed, and then drives in-doubt
    resolution cluster-wide — both for its own held prepares and for
    survivors whose cooperative termination was blocked on this
    coordinator.  Idempotent. *)
let recover eng n =
  let nd = eng.nodes.(n) in
  if not nd.alive then begin
    nd.alive <- true;
    (* New incarnation: everything the dead one still had in flight is
       now stale and must stay dropped (see the epoch guard in [send]). *)
    nd.epoch <- nd.epoch + 1;
    for p = 0 to Placement.n_partitions eng.placement - 1 do
      if
        Placement.master eng.placement p = n
        || ((not eng.nodes.(eng.cur_master.(p)).alive)
           && Placement.replicates eng.placement ~node:n ~partition:p)
      then eng.cur_master.(p) <- n
    done;
    catch_up eng n;
    (* Re-resolve in-doubt prepares everywhere.  Healthy in-flight
       certifications are skipped (their decision traffic is on the way);
       the perfect-failure-detection assumption lets the sweep test the
       coordinator directly. *)
    Array.iter
      (fun other ->
        if other.alive then
          List.iter
            (fun p ->
              let srv = server eng ~node:other.id ~partition:p in
              List.iter
                (fun txid ->
                  let o = Txid.origin txid in
                  if
                    (not eng.nodes.(o).alive)
                    || not (Txid.Tbl.mem eng.nodes.(o).active txid)
                  then resolve_in_doubt eng ~node:other.id ~partition:p txid)
                (Partition_server.pending_txids srv))
            (sorted_partitions other))
      eng.nodes
  end

(** Attach a declarative fault layer: its crash/recover actions drive
    {!crash}/{!recover}, and its link state (cuts, loss) composes with
    the liveness delivery gate.  [recovery] (default true) additionally
    enables the atomic-commitment recovery protocol — decision logging,
    in-doubt holds across crashes and decision-carrying commit upserts —
    independent of the config's detection periods; pass [false] to keep
    the legacy crash-stop presumed-abort semantics while still using the
    fault layer as a pure transport harness. *)
let install_fault ?(recovery = true) eng fault =
  eng.fault <- Some fault;
  if recovery then eng.recovery_on <- true;
  Dsim.Fault.set_handlers fault ~crash:(fun n -> crash eng n)
    ~recover:(fun n -> recover eng n);
  Sim.set_delivery_gate eng.sim (fun ~src ~dst ->
      eng.nodes.(src).alive && eng.nodes.(dst).alive
      && Dsim.Fault.deliverable fault ~src ~dst)

(* ------------------------------------------------------------------ *)
(* State fingerprinting (model-checker support)                        *)
(* ------------------------------------------------------------------ *)

let fnv_mix h x = (h lxor x) * 0x100000001b3

(** Structural hash of the protocol-visible cluster state, independent
    of hash-table iteration order (everything is sorted before mixing).
    Two engine values with equal fingerprints are, with overwhelming
    probability, in the same protocol state — the model checker uses
    this to prune interleavings that converged. *)
let fingerprint eng =
  let h = ref 0x811c9dc5 in
  let add x = h := fnv_mix !h x in
  let addb b = add (if b then 1 else 0) in
  Array.iter
    (fun nd ->
      add nd.id;
      addb nd.alive;
      (* Mixed only once a recovery happened, so fault-free fingerprints
         are unchanged from the pre-recovery engine. *)
      if nd.epoch > 0 then add (0x5ec lxor nd.epoch);
      add nd.next_tx;
      let txs =
        (* lint: allow hashtbl-order — sorted before hashing *)
        Txid.Tbl.fold (fun _ tx acc -> tx :: acc) nd.active []
        |> List.sort (fun (a : tx) b -> Txid.compare a.id b.id)
      in
      List.iter
        (fun (tx : tx) ->
          add (Txid.origin tx.id);
          add (Txid.number tx.id);
          add
            (match tx.state with
            | Active -> 1
            | Types.Local_committed -> 2
            | Types.Committed -> 3
            | Aborted _ -> 4);
          add tx.rs;
          add tx.ffc;
          add tx.lc;
          add tx.ct;
          addb tx.unsafe;
          add tx.pending_prepares;
          addb tx.prepare_failed;
          (* Mixed only when set, so fault-free fingerprints (where no
             prepare can time out) are unchanged from the pre-recovery
             engine. *)
          if tx.prepare_timed_out then add 0x7e0;
          add tx.max_proposal;
          addb tx.global_started;
          add (olc_min tx);
          add (Txid.Set.cardinal tx.deps))
        txs;
      let parts =
        (* lint: allow hashtbl-order — sorted before hashing *)
        Hashtbl.fold (fun p s acc -> (p, s) :: acc) nd.servers []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      List.iter
        (fun (p, s) ->
          add p;
          add (Mvstore.fingerprint (Partition_server.store s)))
        parts;
      add (Mvstore.fingerprint (Partition_server.store nd.cache));
      (* Recovery state, mixed only when present: both tables stay empty
         unless the recovery protocol is on, keeping fault-free
         fingerprints identical to the pre-recovery engine. *)
      if Txid.Tbl.length nd.decisions > 0 then begin
        add 0x6dec;
        (* lint: allow hashtbl-order — sorted before hashing *)
        Txid.Tbl.fold (fun txid d acc -> (txid, d) :: acc) nd.decisions []
        |> List.sort (fun (a, _) (b, _) -> Txid.compare a b)
        |> List.iter (fun (txid, d) ->
               add (Txid.origin txid);
               add (Txid.number txid);
               add (match d with D_commit ct -> ct | D_abort -> -1))
      end;
      if Txid.Tbl.length nd.status_waiters > 0 then begin
        add 0x3a17;
        (* lint: allow hashtbl-order — sorted before hashing *)
        Txid.Tbl.fold (fun txid ws acc -> (txid, ws) :: acc) nd.status_waiters []
        |> List.sort (fun (a, _) (b, _) -> Txid.compare a b)
        |> List.iter (fun (txid, ws) ->
               add (Txid.origin txid);
               add (Txid.number txid);
               List.iter
                 (fun (asker, p) ->
                   add asker;
                   add p)
                 (List.sort
                    (fun (a1, p1) (a2, p2) ->
                      let c = Int.compare a1 a2 in
                      if c <> 0 then c else Int.compare p1 p2)
                    ws))
      end)
    eng.nodes;
  Array.iter add eng.cur_master;
  (* Coalescing queues are protocol state while nonempty (parked
     prepares/decisions the destination has not seen).  Mixed only when
     nonempty, so with batching off — or every queue flushed — the
     fingerprint is identical to the unbatched engine. *)
  Array.iteri
    (fun src row ->
      Array.iteri
        (fun dst b ->
          if b.bq_n > 0 then begin
            add 0xba7c;
            add src;
            add dst;
            add b.bq_n;
            List.iter (fun it -> add (Obs.Trace.msg_index it.bkind)) (List.rev b.bq)
          end)
        row)
    eng.batches;
  (match eng.fault with
   | None -> ()
   | Some f ->
     (* Only an ACTIVE fault layer is protocol-visible state: with every
        cut healed and no loss in effect the layer cannot influence any
        future delivery, and the fingerprint stays identical to an
        engine without one. *)
     if Dsim.Fault.active f then add (Dsim.Fault.fingerprint f));
  !h

(** Validate every version chain in the cluster (test support). *)
let check_invariants eng =
  Array.fold_left
    (fun acc nd ->
      match acc with
      | Error _ -> acc
      | Ok () ->
        (* lint: allow hashtbl-order — all replicas must pass; order only
           picks which error message surfaces first *)
        Hashtbl.fold
          (fun _ s acc ->
            match acc with
            | Error _ -> acc
            | Ok () -> Mvstore.check_invariants (Partition_server.store s))
          nd.servers (Ok ()))
    (Ok ()) eng.nodes

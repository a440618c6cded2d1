(* Unit + property tests for the discrete-event substrate. *)

module Sim = Dsim.Sim
module EQ = Dsim.Event_queue

let test_event_order () =
  let q = EQ.create () in
  EQ.push q ~time:5 "c";
  EQ.push q ~time:1 "a";
  EQ.push q ~time:3 "b";
  EQ.push q ~time:1 "a2";
  let order = List.init 4 (fun _ -> snd (EQ.pop q)) in
  Alcotest.(check (list string)) "pop order" [ "a"; "a2"; "b"; "c" ] order

let test_sim_schedule () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:10 (fun () -> log := "b" :: !log);
  Sim.schedule sim ~delay:5 (fun () ->
      log := "a" :: !log;
      Sim.schedule sim ~delay:20 (fun () -> log := "c" :: !log));
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "exec order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "final time" 25 (Sim.now sim)

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    Sim.schedule sim ~delay:(i * 10) (fun () -> incr fired)
  done;
  ignore (Sim.run ~until:55 sim);
  Alcotest.(check int) "events before cutoff" 5 !fired;
  Alcotest.(check int) "clock at cutoff" 55 (Sim.now sim);
  ignore (Sim.run sim);
  Alcotest.(check int) "rest flushed" 10 !fired

let test_fiber_sleep () =
  let sim = Sim.create () in
  let t = ref (-1) in
  Dsim.Fiber.spawn sim (fun () ->
      Dsim.Fiber.sleep sim 100;
      Dsim.Fiber.sleep sim 50;
      t := Sim.now sim);
  ignore (Sim.run sim);
  Alcotest.(check int) "slept 150" 150 !t

let test_ivar_fiber_handoff () =
  let sim = Sim.create () in
  let iv = Dsim.Ivar.create () in
  let got = ref 0 in
  Dsim.Fiber.spawn sim (fun () -> got := Dsim.Fiber.await iv);
  Dsim.Fiber.spawn sim (fun () ->
      Dsim.Fiber.sleep sim 42;
      Dsim.Ivar.fill iv 7);
  ignore (Sim.run sim);
  Alcotest.(check int) "value" 7 !got

let test_clock_skew_monotone () =
  let sim = Sim.create () in
  let c = Dsim.Clock.create ~sim ~skew_us:250 ~drift_ppm:100. in
  let prev = ref (Dsim.Clock.now c) in
  for _ = 1 to 50 do
    Sim.schedule sim ~delay:13 (fun () ->
        let v = Dsim.Clock.now c in
        Alcotest.(check bool) "monotone" true (v >= !prev);
        prev := v)
  done;
  ignore (Sim.run sim)

let test_clock_delay_until () =
  let sim = Sim.create () in
  let c = Dsim.Clock.create ~sim ~skew_us:(-300) ~drift_ppm:0. in
  let target = 1_000 in
  let d = Dsim.Clock.delay_until c target in
  Alcotest.(check bool) "positive delay" true (d > 0);
  Sim.schedule sim ~delay:d (fun () ->
      Alcotest.(check bool) "caught up" true (Dsim.Clock.now c >= target));
  ignore (Sim.run sim)

let test_network_latency () =
  let sim = Sim.create () in
  let topology = Dsim.Topology.uniform ~dcs:2 ~rtt_ms:80. ~intra_rtt_ms:0.5 in
  let rng = Dsim.Rng.create ~seed:1 in
  let net =
    Dsim.Network.create ~sim ~topology ~node_dc:[| 0; 0; 1 |] ~jitter:0. ~rng
  in
  let arrive = ref (-1) in
  Dsim.Network.send net ~src:0 ~dst:2 (fun () -> arrive := Sim.now sim);
  ignore (Sim.run sim);
  Alcotest.(check int) "one-way 40ms" 40_000 !arrive;
  Alcotest.(check int) "intra-DC" 250 (Dsim.Network.latency_us net ~src:0 ~dst:1);
  Alcotest.(check int) "wan count" 1 (Dsim.Network.wan_messages net)

let test_topology_ec2 () =
  let t = Dsim.Topology.ec2_nine in
  Alcotest.(check int) "nine DCs" 9 (Dsim.Topology.size t);
  (* symmetry *)
  for i = 0 to 8 do
    for j = 0 to 8 do
      Alcotest.(check int)
        (Printf.sprintf "sym %d %d" i j)
        (Dsim.Topology.oneway_us t i j)
        (Dsim.Topology.oneway_us t j i)
    done
  done;
  Alcotest.(check string) "first" "virginia" (Dsim.Topology.name t 0);
  Alcotest.(check bool) "wan >= 10ms" true (Dsim.Topology.rtt_us t 0 8 >= 10_000)

let test_cpu_fifo () =
  let sim = Sim.create () in
  let cpu = Dsim.Cpu.create sim in
  let finishes = ref [] in
  Dsim.Cpu.exec cpu ~cost:100 (fun () -> finishes := ("a", Sim.now sim) :: !finishes);
  Dsim.Cpu.exec cpu ~cost:50 (fun () -> finishes := ("b", Sim.now sim) :: !finishes);
  ignore (Sim.run sim);
  Alcotest.(check (list (pair string int)))
    "fifo" [ ("a", 100); ("b", 150) ] (List.rev !finishes)

let test_network_fifo () =
  (* Messages between a node pair are delivered in send order even with
     jitter (TCP-like channels). *)
  let sim = Sim.create () in
  let topology = Dsim.Topology.uniform ~dcs:2 ~rtt_ms:80. ~intra_rtt_ms:0.5 in
  let rng = Dsim.Rng.create ~seed:2 in
  let net = Dsim.Network.create ~sim ~topology ~node_dc:[| 0; 1 |] ~jitter:0.3 ~rng in
  let order = ref [] in
  for i = 1 to 50 do
    Dsim.Network.send net ~src:0 ~dst:1 (fun () -> order := i :: !order);
    (* Advance time a little between sends. *)
    ignore (Sim.run ~until:(Sim.now sim + 100) sim)
  done;
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "FIFO per channel" (List.init 50 (fun i -> i + 1))
    (List.rev !order)

let test_fiber_nested_spawn () =
  let sim = Sim.create () in
  let log = ref [] in
  Dsim.Fiber.spawn sim (fun () ->
      log := "outer-start" :: !log;
      Dsim.Fiber.spawn sim (fun () ->
          Dsim.Fiber.sleep sim 10;
          log := "inner" :: !log);
      Dsim.Fiber.sleep sim 20;
      log := "outer-end" :: !log);
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "nesting order"
    [ "outer-start"; "inner"; "outer-end" ] (List.rev !log)

let test_fiber_many_waiters_one_ivar () =
  let sim = Sim.create () in
  let iv = Dsim.Ivar.create () in
  let got = ref 0 in
  for _ = 1 to 10 do
    Dsim.Fiber.spawn sim (fun () ->
        let v = Dsim.Fiber.await iv in
        got := !got + v)
  done;
  Dsim.Fiber.spawn sim (fun () ->
      Dsim.Fiber.sleep sim 5;
      Dsim.Ivar.fill iv 3);
  ignore (Sim.run sim);
  Alcotest.(check int) "all ten resumed" 30 !got

let test_ivar_double_fill () =
  let iv = Dsim.Ivar.create () in
  Dsim.Ivar.fill iv 1;
  Alcotest.check_raises "second fill raises" (Invalid_argument "Ivar.fill: already full")
    (fun () -> Dsim.Ivar.fill iv 2);
  Alcotest.(check bool) "fill_if_empty is a no-op" false (Dsim.Ivar.fill_if_empty iv 3);
  Alcotest.(check (option int)) "value kept" (Some 1) (Dsim.Ivar.peek iv)

let test_topology_prefix_and_validation () =
  let t5 = Dsim.Topology.ec2_prefix 5 in
  Alcotest.(check int) "five regions" 5 (Dsim.Topology.size t5);
  Alcotest.(check string) "fifth is frankfurt" "frankfurt" (Dsim.Topology.name t5 4);
  Alcotest.(check int) "latency preserved" (Dsim.Topology.oneway_us Dsim.Topology.ec2_nine 0 4)
    (Dsim.Topology.oneway_us t5 0 4);
  Alcotest.check_raises "prefix bound" (Invalid_argument "Topology.ec2_prefix") (fun () ->
      ignore (Dsim.Topology.ec2_prefix 10));
  Alcotest.check_raises "asymmetric matrix"
    (Invalid_argument "Topology.of_rtt_ms: matrix not symmetric") (fun () ->
      ignore
        (Dsim.Topology.of_rtt_ms ~names:[| "a"; "b" |]
           ~rtt_ms:[| [| 0.; 10. |]; [| 20.; 0. |] |]
           ~intra_rtt_ms:0.5))

let test_topology_mean_remote () =
  let t = Dsim.Topology.uniform ~dcs:4 ~rtt_ms:100. ~intra_rtt_ms:1. in
  Alcotest.(check int) "mean one-way" 50_000 (Dsim.Topology.mean_remote_oneway_us t 0)

let test_cpu_backlog () =
  let sim = Sim.create () in
  let cpu = Dsim.Cpu.create sim in
  Dsim.Cpu.exec cpu ~cost:500 (fun () -> ());
  Dsim.Cpu.exec cpu ~cost:300 (fun () -> ());
  Alcotest.(check int) "backlog" 800 (Dsim.Cpu.backlog_us cpu);
  Alcotest.(check int) "busy accum" 800 (Dsim.Cpu.busy_us cpu);
  ignore (Sim.run sim);
  Alcotest.(check int) "drained" 0 (Dsim.Cpu.backlog_us cpu)

let test_rng_exponential_mean () =
  let rng = Dsim.Rng.create ~seed:11 in
  let n = 20_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Dsim.Rng.exponential rng ~mean:50.
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "sample mean %.2f within 5%% of 50" mean)
    true
    (abs_float (mean -. 50.) < 2.5)

let prop_rng_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle permutes" ~count:200
    QCheck.(pair int (list_of_size (QCheck.Gen.int_range 0 30) int))
    (fun (seed, l) ->
      let rng = Dsim.Rng.create ~seed in
      let arr = Array.of_list l in
      Dsim.Rng.shuffle rng arr;
      List.sort compare (Array.to_list arr) = List.sort compare l)

let test_event_queue_accounting () =
  (* Lifetime pushes/pops and the high-water depth mark are O(1)
     counters the tracing layer reads back after a run. *)
  let q = EQ.create () in
  Alcotest.(check (list int)) "fresh" [ 0; 0; 0 ] [ EQ.pushes q; EQ.pops q; EQ.max_depth q ];
  for i = 1 to 5 do
    EQ.push q ~time:i i
  done;
  ignore (EQ.pop q);
  ignore (EQ.pop q);
  EQ.push q ~time:9 9;
  Alcotest.(check int) "pushes" 6 (EQ.pushes q);
  Alcotest.(check int) "pops" 2 (EQ.pops q);
  (* depth peaked at 5: the sixth push happened after two pops *)
  Alcotest.(check int) "max depth" 5 (EQ.max_depth q);
  while not (EQ.is_empty q) do
    ignore (EQ.pop q)
  done;
  Alcotest.(check int) "drained pops" 6 (EQ.pops q);
  Alcotest.(check int) "max depth unchanged by drain" 5 (EQ.max_depth q)

(* Popped payloads must not stay reachable from the queue: the heap
   moves slot indices and a pop clears its payload slot, so after a
   major collection every popped payload is gone — including the last
   one of a drained queue. *)
let test_event_queue_no_retention () =
  let n = 64 in
  let q = EQ.create () in
  let weak = Weak.create n in
  for i = 0 to n - 1 do
    let payload = Bytes.make 16 (Char.chr (65 + (i mod 26))) in
    Weak.set weak i (Some payload);
    EQ.push q ~time:(i * 7919 mod 101) payload
  done;
  let live () =
    Gc.full_major ();
    let k = ref 0 in
    for i = 0 to n - 1 do
      if Weak.check weak i then incr k
    done;
    !k
  in
  for _ = 1 to n / 2 do
    ignore (Sys.opaque_identity (EQ.pop_payload q))
  done;
  Alcotest.(check int) "only queued payloads survive" (n - (n / 2)) (live ());
  while not (EQ.is_empty q) do
    ignore (Sys.opaque_identity (EQ.pop_payload q))
  done;
  Alcotest.(check int) "drained queue retains nothing" 0 (live ());
  ignore (Sys.opaque_identity q)

(* Payload slots are never a flat float array, whatever the element
   type. *)
let test_event_queue_float_payloads () =
  let q = EQ.create () in
  List.iter (fun t -> EQ.push q ~time:t (float_of_int t +. 0.5)) [ 30; 10; 20; 10 ];
  let popped = List.init 4 (fun _ -> EQ.pop q) in
  Alcotest.(check (list (pair int (float 0.))))
    "times and payloads"
    [ (10, 10.5); (10, 10.5); (20, 20.5); (30, 30.5) ]
    popped

(* --- event queue against a sorted-list model --- *)

(* Reference: the pending entries as a list kept sorted by (time, seq),
   with the seq counter, lifetime counters and last-popped key
   maintained by hand. *)
type model = {
  mutable entries : (int * int * int * int) list;  (** time, seq, src, payload *)
  mutable m_seq : int;
  mutable m_pops : int;
  mutable m_max : int;
  mutable m_popped : int * int;  (** time, src *)
}

(* The new seq exceeds every queued one, so the entry goes after all
   entries at or before [time]. *)
let model_push m ~time ~src v =
  let e = (time, m.m_seq, src, v) in
  m.m_seq <- m.m_seq + 1;
  let rec ins = function
    | ((t, _, _, _) as x) :: rest when t <= time -> x :: ins rest
    | rest -> e :: rest
  in
  m.entries <- ins m.entries;
  m.m_max <- max m.m_max (List.length m.entries)

let model_pop m =
  match m.entries with
  | [] -> None
  | (t, _, src, v) :: rest ->
    m.entries <- rest;
    m.m_pops <- m.m_pops + 1;
    m.m_popped <- (t, src);
    Some v

type op =
  | Push_now of int  (** at the last popped instant, repeated n times *)
  | Push_ahead of int
  | Push_behind of int
  | Push_msg_now of int  (** from this source node *)
  | Pop of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun n -> Push_now n) (int_range 1 3));
        (1, map (fun n -> Push_now n) (int_range 65 100));
        (3, map (fun d -> Push_ahead d) (int_range 0 50));
        (1, map (fun d -> Push_behind d) (int_range 1 20));
        (2, map (fun s -> Push_msg_now s) (int_range 0 9));
        (8, map (fun n -> Pop n) (int_range 1 8));
      ])

let pp_op = function
  | Push_now n -> Printf.sprintf "now*%d" n
  | Push_ahead d -> Printf.sprintf "+%d" d
  | Push_behind d -> Printf.sprintf "-%d" d
  | Push_msg_now s -> Printf.sprintf "msg from %d" s
  | Pop n -> Printf.sprintf "pop*%d" n

(* Every observable of the queue must equal the model's after every
   operation; the script ends by draining both (comparing the full key
   stream every 16 pops there, to keep the check quadratic-free).  A
   message's destination is a function of its payload, [v * 7 mod 10]. *)
let queue_matches_model ops =
  let q = EQ.create () and m = { entries = []; m_seq = 0; m_pops = 0; m_max = 0; m_popped = (0, -1) } in
  let next = ref 0 in
  let push ?(src = -1) time =
    let v = !next in
    incr next;
    if src < 0 then EQ.push q ~time v else EQ.push_msg q ~time ~src ~dst:(v * 7 mod 10) v;
    model_push m ~time ~src v
  in
  let same_state () =
    let keys = List.map (fun (t, s, _, _) -> (t, s)) m.entries in
    EQ.length q = List.length keys
    && EQ.is_empty q = (keys = [])
    && EQ.peek_key q = (match keys with k :: _ -> Some k | [] -> None)
    && (match keys with
       | (t, _) :: _ -> EQ.top_time q = t
       | [] -> ( match EQ.top_time q with _ -> false | exception Not_found -> true))
    && List.rev (EQ.fold_keys_sorted (fun t s acc -> (t, s) :: acc) q []) = keys
    && EQ.pushes q = m.m_seq
    && EQ.pops q = m.m_pops
    && EQ.max_depth q = m.m_max
  in
  let pop () =
    match (EQ.pop_payload q, model_pop m) with
    | v, Some v' ->
      let t, src = m.m_popped in
      v = v' && EQ.popped_time q = t && EQ.popped_src q = src
      && EQ.popped_dst q = (if src < 0 then -1 else v' * 7 mod 10)
    | _, None -> false
    | exception Not_found -> model_pop m = None
  in
  let now () = fst m.m_popped in
  let step op =
    (match op with
    | Push_now n ->
      for _ = 1 to n do
        push (now ())
      done
    | Push_ahead d -> push (now () + d)
    | Push_behind d -> push (max 0 (now () - d))
    | Push_msg_now src -> push ~src (now ())
    | Pop _ -> ());
    let rec pops k = k = 0 || (pop () && pops (k - 1)) in
    (match op with Pop n -> pops n | _ -> true) && same_state ()
  in
  List.for_all step ops
  &&
  let rec drain () =
    EQ.is_empty q || (pop () && (EQ.length q mod 16 <> 0 || same_state ()) && drain ())
  in
  drain () && same_state ()

let prop_event_queue_model =
  QCheck.Test.make ~name:"event queue matches a sorted-list model" ~count:200
    (QCheck.make ~print:QCheck.Print.(list pp_op) QCheck.Gen.(list_size (int_range 0 300) op_gen))
    queue_matches_model

(* --- ivars and fibers --- *)

let test_ivar_waiter_order () =
  (* Registration order survives the One -> Many transition, a waiter
     added after the fill runs at once, and a later [fill_if_empty]
     changes nothing and runs no waiter again. *)
  let iv = Dsim.Ivar.create () in
  let log = ref [] in
  List.iter (fun n -> Dsim.Ivar.on_full iv (fun v -> log := (n, v) :: !log)) [ "a"; "b"; "c" ];
  Alcotest.(check (list (pair string int))) "nothing before fill" [] !log;
  Dsim.Ivar.fill iv 4;
  Dsim.Ivar.on_full iv (fun v -> log := ("late", v) :: !log);
  Alcotest.(check bool) "fill_if_empty on a full ivar" false (Dsim.Ivar.fill_if_empty iv 5);
  Alcotest.(check (list (pair string int)))
    "registration order" [ ("a", 4); ("b", 4); ("c", 4); ("late", 4) ] (List.rev !log);
  Alcotest.(check (option int)) "value kept" (Some 4) (Dsim.Ivar.peek iv);
  let single = Dsim.Ivar.create () in
  let got = ref 0 in
  Dsim.Ivar.on_full single (fun v -> got := v);
  Alcotest.(check bool) "single waiter fills" true (Dsim.Ivar.fill_if_empty single 9);
  Alcotest.(check int) "single waiter ran" 9 !got

exception Refused

let test_suspend_register_raises () =
  (* An exception from the registration is raised in the fiber at the
     [suspend] call, where the fiber can handle it. *)
  let sim = Sim.create () in
  let log = ref [] in
  Dsim.Fiber.spawn sim (fun () ->
      (try Dsim.Fiber.suspend (fun _resume -> raise Refused) with Refused -> log := "caught" :: !log);
      Dsim.Fiber.sleep sim 5;
      log := "resumed" :: !log);
  let processed = Sim.run sim in
  Alcotest.(check (list string)) "handled in the fiber" [ "caught"; "resumed" ] (List.rev !log);
  Alcotest.(check int) "events" 3 processed;
  Alcotest.(check int) "clock" 5 (Sim.now sim);
  Alcotest.check_raises "unhandled: out of Sim.run" Refused (fun () ->
      let sim = Sim.create () in
      Dsim.Fiber.spawn sim (fun () -> Dsim.Fiber.suspend (fun _resume -> raise Refused));
      ignore (Sim.run sim))

(* [sleep], [yield], ivar waits and CPU charges through [suspend], around
   a [Sim.run ~until] pause.  The (time, label, events popped so far)
   log and the queue counters are a golden taken before the ready ring,
   the 4-ary heap and [suspend] existed (when a charge waited on an
   ivar filled by the CPU completion): the wake-up rework must not move
   a single event. *)
let test_sim_script_golden () =
  let sim = Sim.create () in
  let cpu = Dsim.Cpu.create sim in
  let log = ref [] in
  let record label = log := (Sim.now sim, label, Sim.queue_pops sim) :: !log in
  let charge cost = Dsim.Fiber.suspend (fun resume -> Dsim.Cpu.exec cpu ~cost resume) in
  let iv = Dsim.Ivar.create () in
  Sim.schedule sim ~delay:15 (fun () ->
      record "timer";
      Dsim.Ivar.fill iv 7);
  Sim.schedule_msg sim ~time:20 ~src:0 ~dst:1 (fun () -> record "msg");
  for f = 0 to 2 do
    Dsim.Fiber.spawn sim (fun () ->
        record (Printf.sprintf "f%d start" f);
        charge (10 * (f + 1));
        record (Printf.sprintf "f%d charged" f);
        Dsim.Fiber.yield sim;
        record (Printf.sprintf "f%d yielded" f);
        Dsim.Fiber.sleep sim (5 * f);
        record (Printf.sprintf "f%d slept" f);
        let v = Dsim.Fiber.await iv in
        record (Printf.sprintf "f%d got %d" f v);
        charge 3;
        record (Printf.sprintf "f%d done" f))
  done;
  ignore (Sim.run ~until:40 sim);
  record "paused";
  Dsim.Fiber.spawn sim (fun () ->
      Dsim.Fiber.yield sim;
      record "late yielded";
      charge 4;
      record "late charged");
  Sim.schedule sim ~delay:0 (fun () -> record "late timer");
  ignore (Sim.run sim);
  record "end";
  let golden =
    [
      (0, "f0 start", 1);
      (0, "f1 start", 2);
      (0, "f2 start", 3);
      (10, "f0 charged", 5);
      (10, "f0 yielded", 7);
      (10, "f0 slept", 9);
      (15, "timer", 10);
      (15, "f0 got 7", 11);
      (20, "msg", 12);
      (30, "f1 charged", 14);
      (30, "f1 yielded", 16);
      (35, "f1 slept", 18);
      (35, "f1 got 7", 19);
      (40, "paused", 19);
      (40, "late timer", 21);
      (40, "late yielded", 23);
      (60, "f2 charged", 25);
      (60, "f2 yielded", 27);
      (63, "f0 done", 29);
      (66, "f1 done", 31);
      (70, "late charged", 34);
      (70, "f2 slept", 35);
      (70, "f2 got 7", 36);
      (73, "f2 done", 38);
      (73, "end", 38);
    ]
  in
  Alcotest.(check (list (triple int string int))) "pop sequence" golden (List.rev !log);
  Alcotest.(check (list int))
    "pushes, pops, max depth" [ 38; 38; 5 ]
    [ Sim.queue_pushes sim; Sim.queue_pops sim; Sim.queue_max_depth sim ]

let test_sim_delivery_gate () =
  let sim = Sim.create () in
  let fired = ref [] in
  Sim.set_delivery_gate sim (fun ~src ~dst:_ -> src <> 7);
  Sim.schedule_msg sim ~time:10 ~src:7 ~dst:1 (fun () -> fired := "dropped" :: !fired);
  Sim.schedule_msg sim ~time:20 ~src:2 ~dst:1 (fun () -> fired := "kept" :: !fired);
  Sim.schedule sim ~delay:30 (fun () -> fired := "internal" :: !fired);
  let processed = Sim.run sim in
  Alcotest.(check int) "all events consumed" 3 processed;
  Alcotest.(check (list string)) "gate drops src=7" [ "internal"; "kept" ] !fired

(* --- fault layer --- *)

let test_fault_cut_and_heal () =
  let f = Dsim.Fault.create ~n:3 () in
  Alcotest.(check bool) "inert at creation" false (Dsim.Fault.active f);
  Dsim.Fault.apply f (Dsim.Fault.Link_down (0, 1));
  Alcotest.(check bool) "0->1 cut" false (Dsim.Fault.deliverable f ~src:0 ~dst:1);
  Alcotest.(check bool) "reverse direction open" true
    (Dsim.Fault.deliverable f ~src:1 ~dst:0);
  Alcotest.(check int) "one directed cut" 1 (Dsim.Fault.cut_links f);
  Dsim.Fault.apply f (Dsim.Fault.Isolate 2);
  Alcotest.(check int) "isolation cuts both ways to each peer" 5
    (Dsim.Fault.cut_links f);
  Dsim.Fault.apply f (Dsim.Fault.Link_up (0, 1));
  Alcotest.(check bool) "0->1 restored" true (Dsim.Fault.deliverable f ~src:0 ~dst:1);
  Dsim.Fault.apply f Dsim.Fault.Heal;
  Alcotest.(check int) "heal clears everything" 0 (Dsim.Fault.cut_links f);
  Alcotest.(check bool) "inert again" false (Dsim.Fault.active f)

let test_fault_partition_groups () =
  let f = Dsim.Fault.create ~n:4 () in
  Dsim.Fault.apply f (Dsim.Fault.Partition ([ 0; 1 ], [ 2; 3 ]));
  (* 2 x 2 cross-group pairs, both directions. *)
  Alcotest.(check int) "cross-group links cut" 8 (Dsim.Fault.cut_links f);
  Alcotest.(check bool) "intra-group open" true
    (Dsim.Fault.deliverable f ~src:0 ~dst:1);
  Alcotest.(check bool) "cross-group cut" false
    (Dsim.Fault.deliverable f ~src:1 ~dst:2);
  Alcotest.(check int) "blackhole counter" 1 (Dsim.Fault.blackholed f)

let test_fault_drop_deterministic () =
  (* The loss draw comes from the layer's private seeded RNG: two layers
     with the same seed agree on every draw, and a lossless link draws
     nothing (so fault-free links never consume randomness). *)
  let draw seed =
    let f = Dsim.Fault.create ~seed ~n:2 () in
    Dsim.Fault.apply f (Dsim.Fault.Drop (0, 1, 0.5));
    List.init 64 (fun _ -> Dsim.Fault.deliverable f ~src:0 ~dst:1)
  in
  Alcotest.(check (list bool)) "same seed, same losses" (draw 11) (draw 11);
  let f = Dsim.Fault.create ~n:2 () in
  Dsim.Fault.apply f (Dsim.Fault.Drop (0, 1, 0.5));
  for _ = 1 to 32 do
    ignore (Dsim.Fault.deliverable f ~src:1 ~dst:0)
  done;
  Alcotest.(check int) "lossless link loses nothing" 0 (Dsim.Fault.dropped f);
  Alcotest.(check bool) "lossy link loses something in 64 draws" true
    (let lost = ref 0 in
     for _ = 1 to 64 do
       if not (Dsim.Fault.deliverable f ~src:0 ~dst:1) then incr lost
     done;
     !lost > 0 && !lost < 64)

let test_fault_plan_installs_in_order () =
  (* A plan drives handler callbacks at its scheduled times, and the
     applied-action counter tracks it. *)
  let sim = Sim.create () in
  let f = Dsim.Fault.create ~n:2 () in
  let log = ref [] in
  Dsim.Fault.set_handlers f
    ~crash:(fun n -> log := ("crash", n, Sim.now sim) :: !log)
    ~recover:(fun n -> log := ("recover", n, Sim.now sim) :: !log);
  Dsim.Fault.install f ~sim
    [ (200, Dsim.Fault.Recover 1); (100, Dsim.Fault.Crash 1) ];
  ignore (Sim.run sim);
  Alcotest.(check (list (triple string int int))) "plan fired in time order"
    [ ("crash", 1, 100); ("recover", 1, 200) ]
    (List.rev !log);
  Alcotest.(check int) "both actions applied" 2 (Dsim.Fault.actions_applied f)

let test_fault_fingerprint_tracks_link_state () =
  let f = Dsim.Fault.create ~n:3 () in
  let fp0 = Dsim.Fault.fingerprint f in
  Dsim.Fault.apply f (Dsim.Fault.Link_down (0, 1));
  let fp1 = Dsim.Fault.fingerprint f in
  Alcotest.(check bool) "cut changes the fingerprint" true (fp0 <> fp1);
  Dsim.Fault.apply f Dsim.Fault.Heal;
  Alcotest.(check int) "heal restores it" fp0 (Dsim.Fault.fingerprint f)

(* --- properties --- *)

let prop_event_queue_sorted =
  QCheck.Test.make ~name:"event queue pops in nondecreasing time order" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let q = EQ.create () in
      List.iter (fun t -> EQ.push q ~time:t t) times;
      let rec drain prev =
        if EQ.is_empty q then true
        else begin
          let t, _ = EQ.pop q in
          t >= prev && drain t
        end
      in
      drain min_int)

let prop_rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair int (int_range 1 1_000_000))
    (fun (seed, n) ->
      let rng = Dsim.Rng.create ~seed in
      let v = Dsim.Rng.int rng n in
      v >= 0 && v < n)

(* The splitmix64 stream is pinned: every simulated outcome (and every
   golden) depends on it, whatever representation holds the state. *)
let test_rng_stream_pinned () =
  let r = Dsim.Rng.create ~seed:42 in
  Alcotest.(check (list int))
    "next"
    [ 3419864383188818853; 737456523031723072; 1284820937115690964; 1587299515064563941 ]
    (List.init 4 (fun _ -> Dsim.Rng.next r));
  let s = Dsim.Rng.split r in
  Alcotest.(check (list int))
    "split"
    [ 2619031928605061365; 1637620240679676905 ]
    (List.init 2 (fun _ -> Dsim.Rng.next s));
  Alcotest.(check (float 0.)) "float" 0x1.bc8863f47901bp-1 (Dsim.Rng.float r);
  Alcotest.(check int) "int" 231 (Dsim.Rng.int r 1000);
  Alcotest.(check bool) "bool" false (Dsim.Rng.bool r);
  Alcotest.(check int) "negative seed" 1947672806076484188
    (Dsim.Rng.next (Dsim.Rng.create ~seed:(-7)))

let prop_rng_deterministic =
  QCheck.Test.make ~name:"rng is deterministic per seed" ~count:100 QCheck.int
    (fun seed ->
      let a = Dsim.Rng.create ~seed and b = Dsim.Rng.create ~seed in
      List.init 20 (fun _ -> Dsim.Rng.next a)
      = List.init 20 (fun _ -> Dsim.Rng.next b))

let prop_rng_float_unit =
  QCheck.Test.make ~name:"rng float in [0,1)" ~count:500 QCheck.int (fun seed ->
      let rng = Dsim.Rng.create ~seed in
      let f = Dsim.Rng.float rng in
      f >= 0. && f < 1.)

let () =
  Alcotest.run "dsim"
    [
      ( "event-queue",
        [
          Alcotest.test_case "fifo at equal times" `Quick test_event_order;
          Alcotest.test_case "push/pop/depth accounting" `Quick test_event_queue_accounting;
          Alcotest.test_case "popped payloads not retained" `Quick
            test_event_queue_no_retention;
          Alcotest.test_case "float payloads" `Quick test_event_queue_float_payloads;
          QCheck_alcotest.to_alcotest prop_event_queue_sorted;
          QCheck_alcotest.to_alcotest prop_event_queue_model;
        ] );
      ( "sim",
        [
          Alcotest.test_case "schedule order" `Quick test_sim_schedule;
          Alcotest.test_case "run until" `Quick test_sim_until;
          Alcotest.test_case "delivery gate" `Quick test_sim_delivery_gate;
          Alcotest.test_case "script golden" `Quick test_sim_script_golden;
        ] );
      ( "fiber",
        [
          Alcotest.test_case "sleep" `Quick test_fiber_sleep;
          Alcotest.test_case "ivar handoff" `Quick test_ivar_fiber_handoff;
          Alcotest.test_case "nested spawn" `Quick test_fiber_nested_spawn;
          Alcotest.test_case "many waiters" `Quick test_fiber_many_waiters_one_ivar;
          Alcotest.test_case "ivar double fill" `Quick test_ivar_double_fill;
          Alcotest.test_case "ivar waiter order" `Quick test_ivar_waiter_order;
          Alcotest.test_case "suspend registration raises" `Quick
            test_suspend_register_raises;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotone under skew+drift" `Quick test_clock_skew_monotone;
          Alcotest.test_case "delay until target" `Quick test_clock_delay_until;
        ] );
      ( "network",
        [
          Alcotest.test_case "latencies" `Quick test_network_latency;
          Alcotest.test_case "ec2 topology" `Quick test_topology_ec2;
          Alcotest.test_case "FIFO channels" `Quick test_network_fifo;
          Alcotest.test_case "ec2 prefix + validation" `Quick test_topology_prefix_and_validation;
          Alcotest.test_case "mean remote latency" `Quick test_topology_mean_remote;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "fifo queueing" `Quick test_cpu_fifo;
          Alcotest.test_case "backlog accounting" `Quick test_cpu_backlog;
        ] );
      ( "fault",
        [
          Alcotest.test_case "cut and heal" `Quick test_fault_cut_and_heal;
          Alcotest.test_case "partition groups" `Quick test_fault_partition_groups;
          Alcotest.test_case "deterministic loss" `Quick test_fault_drop_deterministic;
          Alcotest.test_case "plan installation" `Quick test_fault_plan_installs_in_order;
          Alcotest.test_case "fingerprint tracks links" `Quick
            test_fault_fingerprint_tracks_link_state;
        ] );
      ( "rng",
        [
          QCheck_alcotest.to_alcotest prop_rng_bounds;
          QCheck_alcotest.to_alcotest prop_rng_deterministic;
          Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
          QCheck_alcotest.to_alcotest prop_rng_float_unit;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          QCheck_alcotest.to_alcotest prop_rng_shuffle_is_permutation;
        ] );
    ]

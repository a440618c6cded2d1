(* Sampling host-time profiler for one simulation run ("where did this
   run's host time go?").

   A process-CPU-time interval timer raises SIGPROF every [period_s];
   the handler, which OCaml runs at the interrupted code's next poll
   point, records the OCaml call stack with [Printexc.get_callstack].
   Only samples taken under [Dsim.Sim.run] are kept, so workload
   generation, loading and report printing do not dilute the event
   loop's profile.  The report ranks frames by self samples (the
   innermost frame outside this module) and lists each one's three most
   frequent callers.  Frame names need the debug information dune
   builds with by default. *)

let depth = 96
let period_s = 0.001

let name_of slot =
  match Printexc.Slot.name slot with
  | Some n -> n
  | None -> (
    match Printexc.Slot.location slot with
    | Some l -> Printf.sprintf "%s:%d" l.Printexc.filename l.Printexc.line_number
    | None -> "?")

(* The handler's own frames sit on top of every sample. *)
let own_frame = String.starts_with ~prefix:"Dune__exe__Hostprof."
let in_event_loop = String.starts_with ~prefix:"Dsim__Sim.run"

(* Counts sorted largest first, ties by name. *)
let ranked tbl =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
  |> List.sort (fun (a, x) (b, y) -> if x <> y then compare y x else compare a b)

let report ~top samples =
  let self = Hashtbl.create 256 and callers = Hashtbl.create 256 in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let kept = ref 0 in
  List.iter
    (fun bt ->
      let frames =
        match Printexc.backtrace_slots bt with
        | None -> []
        | Some slots ->
          Array.to_list slots |> List.map name_of |> List.filter (fun n -> not (own_frame n))
      in
      match frames with
      | frame :: rest when List.exists in_event_loop frames ->
        incr kept;
        bump self frame;
        bump callers (frame, match rest with c :: _ -> c | [] -> "(root)")
      | _ -> ())
    samples;
  let pct n = 100. *. float_of_int n /. float_of_int (max 1 !kept) in
  Printf.printf "host profile: %d samples under Dsim.Sim.run (of %d), %.0f us period asked\n"
    !kept (List.length samples) (period_s *. 1e6);
  let by_caller = ranked callers in
  List.iteri
    (fun i (frame, n) ->
      if i < top then begin
        Printf.printf "  %5.1f%%  %s\n" (pct n) frame;
        List.filter (fun ((f, _), _) -> f = frame) by_caller
        |> List.iteri (fun j ((_, c), k) ->
               if j < 3 then Printf.printf "           %5.1f%%  <- %s\n" (pct k) c)
      end)
    (ranked self)

(** Run [f ()] under the sampler, then print the [top] frames with the
    most self samples under the event loop. *)
let run ~top f =
  let samples = ref [] in
  let handler _ = samples := Printexc.get_callstack depth :: !samples in
  let old = Sys.signal Sys.sigprof (Sys.Signal_handle handler) in
  let arm v =
    ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = v; Unix.it_value = v })
  in
  arm period_s;
  Fun.protect
    ~finally:(fun () ->
      arm 0.;
      Sys.set_signal Sys.sigprof old)
    f;
  report ~top !samples

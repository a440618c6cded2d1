(* Sampling host-time profiler for one simulation run ("where did this
   run's host time go?").

   A process-CPU-time interval timer raises SIGPROF every [period_s];
   the handler, which OCaml runs at the interrupted code's next poll
   point, records the OCaml call stack with [Printexc.get_callstack].
   Only event-loop samples are kept, so workload generation, loading
   and report printing do not dilute the profile.  A sample belongs to
   the event loop when its stack reaches [Dsim.Sim.run], or when it
   does not reach the program's entry frame at all: a stack captured
   inside a simulator fiber stops at the fiber's boundary, and fibers
   only run under [Sim.run].  The report ranks frames by self samples
   (the innermost frame outside this module), lists each one's three
   most frequent callers, and sums self samples by module.  Frame names
   need the debug information dune builds with by default. *)

let depth = 256
let period_s = 0.001

let name_of slot =
  match Printexc.Slot.name slot with
  | Some n -> n
  | None -> (
    match Printexc.Slot.location slot with
    | Some l -> Printf.sprintf "%s:%d" l.Printexc.filename l.Printexc.line_number
    | None -> "?")

let frames_of bt =
  match Printexc.backtrace_slots bt with
  | None -> []
  | Some slots -> Array.to_list slots |> List.map name_of

(* The handler's own frames sit on top of every sample. *)
let own_frame = String.starts_with ~prefix:"Dune__exe__Hostprof."
let in_event_loop = String.starts_with ~prefix:"Dsim__Sim.run"

(* "Dsim__Sim.run_heap" -> "Dsim.Sim", "Dune__exe__Str_sim.f" ->
   "Str_sim": the mangled module path of a frame, up to its first dot. *)
let module_of frame =
  let path =
    match String.index_opt frame '.' with Some i -> String.sub frame 0 i | None -> frame
  in
  let buf = Buffer.create (String.length path) in
  let n = String.length path in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && path.[!i] = '_' && path.[!i + 1] = '_' then begin
      Buffer.add_char buf '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char buf path.[!i];
      incr i
    end
  done;
  let m = Buffer.contents buf in
  let exe = "Dune.exe." in
  if String.starts_with ~prefix:exe m then
    String.sub m (String.length exe) (String.length m - String.length exe)
  else m

(* Counts sorted largest first, ties by name. *)
let ranked tbl =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
  |> List.sort (fun (a, x) (b, y) -> if x <> y then compare y x else compare a b)

let report ~top ~entry samples =
  let self = Hashtbl.create 256 and callers = Hashtbl.create 256 in
  let modules = Hashtbl.create 64 in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let kept = ref 0 and in_fibers = ref 0 in
  List.iter
    (fun bt ->
      let all = frames_of bt in
      let under_run = List.exists in_event_loop all in
      let in_fiber =
        (not under_run) && match List.rev all with bottom :: _ -> bottom <> entry | [] -> false
      in
      match List.filter (fun n -> not (own_frame n)) all with
      | frame :: rest when under_run || in_fiber ->
        incr kept;
        if in_fiber then incr in_fibers;
        bump self frame;
        bump modules (module_of frame);
        bump callers (frame, match rest with c :: _ -> c | [] -> "(root)")
      | _ -> ())
    samples;
  let pct n = 100. *. float_of_int n /. float_of_int (max 1 !kept) in
  Printf.printf
    "host profile: %d event-loop samples (of %d; %d of them inside fibers), %.0f us period asked\n"
    !kept (List.length samples) !in_fibers (period_s *. 1e6);
  let by_caller = ranked callers in
  List.iteri
    (fun i (frame, n) ->
      if i < top then begin
        Printf.printf "  %5.1f%%  %s\n" (pct n) frame;
        List.filter (fun ((f, _), _) -> f = frame) by_caller
        |> List.iteri (fun j ((_, c), k) ->
               if j < 3 then Printf.printf "           %5.1f%%  <- %s\n" (pct k) c)
      end)
    (ranked self);
  Printf.printf "by module (self samples):\n";
  List.iteri
    (fun i (m, n) -> if i < top then Printf.printf "  %5.1f%%  %6d  %s\n" (pct n) n m)
    (ranked modules)

(** Run [f ()] under the sampler, then print the [top] frames with the
    most self samples in the event loop and the [top] modules. *)
let run ~top f =
  (* The outermost frame of a stack on the main fiber: every sample
     taken outside a simulator fiber bottoms out here. *)
  let entry =
    match List.rev (frames_of (Printexc.get_callstack depth)) with
    | bottom :: _ -> bottom
    | [] -> "?"
  in
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
  report ~top ~entry !samples

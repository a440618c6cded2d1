(** See sweep.mli. *)

type ('k, 'r) cell = { key : 'k; trace : Obs.Trace.t option; thunk : unit -> 'r }

let cell ?trace key thunk = { key; trace; thunk }

let keys cells = List.map (fun c -> c.key) cells

let run ?tracer ~jobs cells =
  let adopt =
    match tracer with
    | Some t -> Tracing.adopt t
    | None ->
      if List.exists (fun c -> Option.is_some c.trace) cells then
        invalid_arg "Sweep.run: traced cells need ~tracer";
      ignore
  in
  (* A traced cell returns its recorder next to its result: run in a
     worker process, the recorder the cell wrote into lives only there. *)
  Procpool.run ~jobs (List.map (fun c () -> (c.thunk (), c.trace)) cells)
  |> List.map2
       (fun c (r, trace) ->
         Option.iter adopt trace;
         (c.key, r))
       cells

let get results key =
  match List.assq_opt key results with
  | Some r -> r
  | None -> (
    (* assq misses keys rebuilt structurally (tuples, strings); fall
       back to structural equality before giving up. *)
    match List.assoc_opt key results with
    | Some r -> r
    | None -> invalid_arg "Sweep.get: key absent from sweep results")

let product xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

let product3 xs ys zs =
  List.concat_map (fun x -> List.concat_map (fun y -> List.map (fun z -> (x, y, z)) zs) ys) xs

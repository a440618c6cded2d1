type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t

let suspend register = Effect.perform (Suspend register)

let await iv = suspend (Ivar.on_full iv)

let spawn sim f =
  let open Effect.Deep in
  let handler =
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                (* Resume through the event queue rather than inline, so a
                   wake-up never re-enters the waker's stack. *)
                match register (fun v -> Sim.schedule sim ~delay:0 (fun () -> continue k v)) with
                | () -> ()
                | exception e -> discontinue k e)
          | _ -> None);
    }
  in
  Sim.schedule sim ~delay:0 (fun () -> match_with f () handler)

let sleep sim delay = suspend (fun resume -> Sim.schedule sim ~delay resume)

let yield sim = sleep sim 0

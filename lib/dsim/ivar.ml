(* Most ivars get one waiter (a fiber blocked in [Fiber.await]), so that
   case has its own state: no cons cell on [on_full] and no [List.rev]
   on [fill].  [Many] keeps the waiters newest first. *)
type 'a state =
  | Empty
  | One of ('a -> unit)
  | Many of ('a -> unit) list
  | Full of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Empty }

let is_full iv = match iv.state with Full _ -> true | Empty | One _ | Many _ -> false

let fill iv v =
  match iv.state with
  | Full _ -> invalid_arg "Ivar.fill: already full"
  | Empty -> iv.state <- Full v
  | One k ->
    iv.state <- Full v;
    k v
  | Many waiters ->
    iv.state <- Full v;
    (* Waiters registered first fire first. *)
    List.iter (fun k -> k v) (List.rev waiters)

let fill_if_empty iv v =
  match iv.state with
  | Full _ -> false
  | Empty | One _ | Many _ -> fill iv v; true

let peek iv = match iv.state with Full v -> Some v | Empty | One _ | Many _ -> None

let on_full iv k =
  match iv.state with
  | Full v -> k v
  | Empty -> iv.state <- One k
  | One k0 -> iv.state <- Many [ k; k0 ]
  | Many waiters -> iv.state <- Many (k :: waiters)

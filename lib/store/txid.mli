(** Globally unique transaction identifiers: originating node plus a
    per-node sequence number.  Totally ordered, hashable, with ready-made
    ordered/hashed containers. *)

type t = private { origin : int; number : int; hash : int }

val make : origin:int -> number:int -> t
val origin : t -> int
val number : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int

(** [Hashtbl.hash (origin, number)], cached at construction; O(1). *)
val hash : t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Tbl : Hashtbl.S with type key = t

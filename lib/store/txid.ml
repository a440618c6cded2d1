(** Globally unique transaction identifiers.

    A transaction is identified by the node that originated it and a
    per-node sequence number.  Identifiers are totally ordered (node
    first) so they can key ordered containers deterministically. *)

(* [hash] is computed once, at construction, and must be exactly
   [Hashtbl.hash (origin, number)]: it fixes every [Tbl]'s bucket
   layout, hence its iteration order, which reaches event order and the
   fingerprint goldens. *)
type t = { origin : int; number : int; hash : int }

let make ~origin ~number = { origin; number; hash = Hashtbl.hash (origin, number) }

let origin t = t.origin
let number t = t.number

let equal a b = a == b || (a.number = b.number && a.origin = b.origin)

let compare a b =
  match Int.compare a.origin b.origin with
  | 0 -> Int.compare a.number b.number
  | c -> c

(* Unambiguous alias for the structural comparator above, so functor
   arguments below visibly do not capture the polymorphic [compare]. *)
let compare_id = compare

let hash t = t.hash

let pp ppf t = Format.fprintf ppf "tx%d.%d" t.origin t.number
let to_string t = Printf.sprintf "tx%d.%d" t.origin t.number

module Map = Map.Make (struct
  type nonrec t = t
  let compare = compare_id
end)

module Set = Set.Make (struct
  type nonrec t = t
  let compare = compare_id
end)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end)

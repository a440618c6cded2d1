(** Per-key multi-version chain, newest timestamp first.

    Invariants maintained (checked by [check_invariants], used from the
    property tests):
    - versions are sorted by strictly decreasing timestamp, except that
      two versions never share a timestamp unless written by the same
      transaction (which cannot happen);
    - committed versions form a suffix: every uncommitted (speculative)
      version sits above the whole committed history, so no committed
      version is newer (by position) than any uncommitted one.

    Representation: a growable array sorted by {e ascending} timestamp
    ([vs.(0)] is the oldest version, [vs.(len-1)] the newest), which
    makes the protocol's common case — installing a version whose
    proposal timestamp exceeds everything in the chain — an O(1)
    append, and turns the snapshot lookups into binary searches.  The
    public API still speaks newest-first, matching the paper's
    presentation.

    A slot beyond [len] may retain a stale version reference until the
    next insert overwrites it; at most a bounded number of versions is
    kept alive this way, which is irrelevant next to the chains
    themselves.

    The record also carries two per-key words owned by {!Mvstore}: the
    key's Precise Clocks [LastReader], so a read finds the version and
    bumps the metadata with one key lookup, and a [slot] (the chain's
    index in the store's prune list, or a negative mark). *)

type t = {
  mutable vs : Version.t array;  (** ascending ts; only [0..len-1] live *)
  mutable len : int;
  mutable last_reader : int;
  mutable slot : int;
}

let create () = { vs = [||]; len = 0; last_reader = 0; slot = -1 }

let is_empty c = c.len = 0

let length c = c.len

let last_reader c = c.last_reader
let set_last_reader c ts = c.last_reader <- ts
let slot c = c.slot
let set_slot c i = c.slot <- i

(** Versions, newest timestamp first (allocates; test/introspection
    support — hot paths use the index-based accessors). *)
let versions c =
  let acc = ref [] in
  for i = 0 to c.len - 1 do
    acc := c.vs.(i) :: !acc
  done;
  !acc

(** Fold over the versions newest-first without allocating the list. *)
let fold_newest f init c =
  let acc = ref init in
  for i = c.len - 1 downto 0 do
    acc := f !acc c.vs.(i)
  done;
  !acc

(** First index whose timestamp exceeds [ts] ([c.len] if none): the
    insertion point that keeps equal-timestamp versions ordered with the
    newest insertion on the newer side. *)
let upper_bound c ts =
  let lo = ref 0 and hi = ref c.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if c.vs.(mid).Version.ts <= ts then lo := mid + 1 else hi := mid
  done;
  !lo

let grow c (fill : Version.t) =
  if c.len = Array.length c.vs then begin
    let cap = if c.len = 0 then 4 else 2 * c.len in
    let vs = Array.make cap fill in
    Array.blit c.vs 0 vs 0 c.len;
    c.vs <- vs
  end

(** Insert keeping the ascending-timestamp order; among equal
    timestamps the newly inserted version goes on the newer side (it is
    newer).  O(1) when [v] is the newest, as protocol inserts are. *)
let insert c (v : Version.t) =
  grow c v;
  let pos = upper_bound c v.ts in
  if pos < c.len then Array.blit c.vs pos c.vs (pos + 1) (c.len - pos);
  c.vs.(pos) <- v;
  c.len <- c.len + 1

(** Newest version regardless of state. *)
let newest c = if c.len = 0 then None else Some c.vs.(c.len - 1)

(** Index of the newest committed version, [-1] if none.  Walks down
    from the newest version; under the committed-suffix invariant it
    passes only the uncommitted stack. *)
let newest_committed_idx c =
  let i = ref (c.len - 1) in
  while !i >= 0 && not (Version.is_committed c.vs.(!i)) do
    decr i
  done;
  !i

(** Newest committed version. *)
let newest_committed c =
  let i = newest_committed_idx c in
  if i < 0 then None else Some c.vs.(i)

(** Latest version with [ts <= rs] (any state) — the version a reader
    with read snapshot [rs] lands on (Alg. 2, latest_before).  Binary
    search. *)
let latest_before c ~rs =
  let pos = upper_bound c rs - 1 in
  if pos < 0 then None else Some c.vs.(pos)

(** Latest committed version with [ts <= rs]: binary search to the
    visibility frontier, then a short walk over the (small) speculative
    stack above the committed history. *)
let latest_committed_before c ~rs =
  let pos = ref (upper_bound c rs - 1) in
  while !pos >= 0 && not (Version.is_committed c.vs.(!pos)) do
    decr pos
  done;
  if !pos < 0 then None else Some c.vs.(!pos)

(** Index of [txid]'s version, [-1] if absent.  Scans newest-first:
    uncommitted versions — the usual lookup targets — sit on top. *)
let index_of_writer c txid =
  let i = ref (c.len - 1) in
  while !i >= 0 && not (Txid.equal c.vs.(!i).Version.writer txid) do
    decr i
  done;
  !i

let find_writer c txid =
  let i = index_of_writer c txid in
  if i < 0 then None else Some c.vs.(i)

let remove_at c i =
  let v = c.vs.(i) in
  if i < c.len - 1 then Array.blit c.vs (i + 1) c.vs i (c.len - 1 - i);
  c.len <- c.len - 1;
  (* Drop the stale tail reference (point it at a version that is live
     anyway, so nothing is retained beyond the chain itself). *)
  if c.len > 0 then c.vs.(c.len) <- c.vs.(0);
  v

(** Remove [txid]'s version, returning it (accounting support). *)
let remove_writer c txid =
  let i = index_of_writer c txid in
  if i < 0 then None else Some (remove_at c i)

(** Reposition a version after its timestamp was bumped (pre-commit ->
    local-commit -> commit transitions only increase timestamps).  Must
    be called after any externally performed [ts]/[state] mutation; the
    binary searches rely on it. *)
let reposition c (v : Version.t) =
  let i = ref (c.len - 1) in
  while !i >= 0 && c.vs.(!i) != v do
    decr i
  done;
  if !i >= 0 then ignore (remove_at c !i);
  insert c v

(** Raise the uncommitted versions displaced into [(above, floor]] back
    above [floor], one timestamp step each, in the order
    [uncommitted c |> filter (above, floor] |> stable sort by ts] gives:
    ascending timestamp, and among equal timestamps the newest position
    first.  The chain is sorted, so the displaced versions lie in the
    index range found by two binary searches; each one moves to
    [floor + k], above everything in the range, so the indices below the
    one just moved stay valid.  Allocates nothing. *)
let restack c ~above ~floor =
  let hi = ref (upper_bound c floor) in
  let g = ref (upper_bound c above) in
  let next = ref floor in
  while !g < !hi do
    (* [g, e): the versions sharing the timestamp at [g] *)
    let ts = c.vs.(!g).Version.ts in
    let e = ref (!g + 1) in
    while !e < !hi && c.vs.(!e).Version.ts = ts do
      incr e
    done;
    for i = !e - 1 downto !g do
      let v = c.vs.(i) in
      if Version.is_uncommitted v then begin
        ignore (remove_at c i);
        incr next;
        v.ts <- !next;
        insert c v;
        decr e;
        decr hi
      end
    done;
    g := !e
  done

(** Uncommitted versions, newest first. *)
let uncommitted c =
  let acc = ref [] in
  for i = 0 to c.len - 1 do
    if Version.is_uncommitted c.vs.(i) then acc := c.vs.(i) :: !acc
  done;
  !acc

(** [List.iter f (uncommitted c)] without building the list: visits the
    uncommitted versions newest first and stops at the first committed
    one.  Exact only under the committed-suffix invariant (every
    uncommitted version sits above the whole committed history), so not
    for use while a caller has it transiently broken. *)
let iter_uncommitted f c =
  let i = ref (c.len - 1) in
  while !i >= 0 && Version.is_uncommitted c.vs.(!i) do
    f c.vs.(!i);
    decr i
  done

(** Any version with [ts > after] (write-write certification): the
    newest version has the maximal timestamp, so this is O(1). *)
let exists_newer_than c ~after =
  c.len > 0 && c.vs.(c.len - 1).Version.ts > after

(** Drop committed versions older than [horizon], always retaining the
    newest committed one and every uncommitted version.  Single
    compaction pass; [on_drop] fires once per dropped version (storage
    accounting).  Returns the number of versions dropped. *)
let prune ?(on_drop = fun (_ : Version.t) -> ()) c ~horizon =
  let nc = newest_committed_idx c in
  let w = ref 0 in
  for i = 0 to c.len - 1 do
    let v = c.vs.(i) in
    if Version.is_uncommitted v || i = nc || v.Version.ts >= horizon then begin
      if !w < i then c.vs.(!w) <- v;
      incr w
    end
    else on_drop v
  done;
  let dropped = c.len - !w in
  if dropped > 0 then begin
    (* Clear freed slots so dropped versions are not retained. *)
    if !w > 0 then
      for i = !w to c.len - 1 do
        c.vs.(i) <- c.vs.(0)
      done;
    c.len <- !w
  end;
  dropped

(** Validate both ordering invariants (descending timestamps newest
    first, committed suffix); returns an error description if broken. *)
let check_invariants c =
  let rec go i =
    if i >= c.len - 1 then Ok ()
    else begin
      (* Newest-first adjacent pair: a = vs.(i+1) sits above b = vs.(i). *)
      let a = c.vs.(i + 1) and b = c.vs.(i) in
      if a.Version.ts < b.Version.ts then
        Error
          (Printf.sprintf "chain out of order: %s@%d before %s@%d"
             (Txid.to_string a.writer) a.ts (Txid.to_string b.writer) b.ts)
      else go (i + 1)
    end
  in
  match go 0 with
  | Error _ as e -> e
  | Ok () ->
    (* Committed suffix: scanning oldest to newest, once a speculative
       (uncommitted) version appears nothing above it may be committed. *)
    let rec suffix i seen_uncommitted =
      if i >= c.len then Ok ()
      else begin
        let v = c.vs.(i) in
        if Version.is_committed v then
          if seen_uncommitted then
            Error
              (Printf.sprintf
                 "committed %s@%d stacked above an uncommitted version"
                 (Txid.to_string v.Version.writer) v.Version.ts)
          else suffix (i + 1) false
        else suffix (i + 1) true
      end
    in
    suffix 0 false

(* Two parts behind one (time, seq) order:

   - a FIFO {e ready ring} for events pushed at the instant of the last
     pop.  In the simulator these are the delay-0 fiber resumes and
     same-instant hand-offs — a large share of all events — and they
     arrive in seq order at one time, so a ring keeps them sorted for
     free: O(1) push and pop, no sifting;
   - a 4-ary min-heap for everything else.  Half the depth of a binary
     heap, and the four children of a node are adjacent, so a sift-down
     level reads one run of [times] instead of two scattered pairs.

   Every entry takes its [seq] from one shared counter, and pop takes
   the smaller head of the two parts by (time, seq), so the pop order is
   exactly that of a single heap.  The ring holds entries of one time
   only ([rtime]); a same-instant push lands in the heap when the ring
   still holds entries of an older instant (possible only for a
   standalone queue pushed behind its last pop; [Sim] never does).

   The heap holds only unboxed [int]s, in parallel arrays: the key
   ([times]/[seqs]), a packed routing word ([metas]) and the index of
   the entry's payload slot ([slots]).  Payloads live in a separate slot
   array that is written once when an event is pushed and cleared once
   when it is popped, so sifting moves ints only.  Moving payload
   pointers through the heap would pay OCaml's write barrier at every
   level: the array lives in the major heap and the closures stored in
   it are usually young.  The ring writes and clears its payload once
   per entry too.

   The routing word is [-1] for internal events, or
   [(src lsl 20) lor dst] for network deliveries.  Carrying the
   endpoints unboxed in the queue lets the run loop apply liveness
   checks (drop deliveries to/from crashed nodes) without the
   per-message guard closure the engine used to allocate around every
   send.

   The payload arrays are [Obj.t array]s created from an immediate, so
   they are never flat float arrays whatever ['a] is, and a freed slot
   can hold that immediate: a popped payload is never retained by the
   queue. *)

type 'a t = {
  (* 4-ary heap *)
  mutable times : int array;
  mutable seqs : int array;
  mutable metas : int array;
  mutable slots : int array;  (** heap position -> payload slot *)
  mutable payloads : Obj.t array;  (** payload slot -> ['a], or [empty_slot] *)
  mutable free : int array;  (** stack of free payload slots, [0..nfree-1] *)
  mutable nfree : int;
  mutable size : int;
  (* Ready ring: [rlen] entries from [rhead], all at time [rtime];
     capacity a power of two. *)
  mutable rtime : int;
  mutable rseqs : int array;
  mutable rmetas : int array;
  mutable rpayloads : Obj.t array;
  mutable rhead : int;
  mutable rlen : int;
  mutable next_seq : int;
  (* Lifetime accounting over both parts (a few int ops per operation):
     total pushes/pops and the depth high-water mark.  The
     observability layer reports these in run summaries. *)
  mutable pushed : int;
  mutable pops : int;
  mutable max_depth : int;
  (* Key of the entry most recently removed by [pop_payload]: read via
     the accessors instead of returning a tuple (the simulator's inner
     loop would otherwise allocate one block per event). *)
  mutable popped_time : int;
  mutable popped_meta : int;
}

let initial_capacity = 64

let empty_slot = Obj.repr 0

let no_meta = -1

let pack_meta ~src ~dst =
  if src < 0 then no_meta else (src lsl 20) lor (dst land 0xfffff)

let create () =
  {
    times = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    metas = Array.make initial_capacity no_meta;
    slots = Array.make initial_capacity 0;
    payloads = Array.make initial_capacity empty_slot;
    free = Array.make initial_capacity 0;
    nfree = 0;
    size = 0;
    rtime = 0;
    rseqs = Array.make initial_capacity 0;
    rmetas = Array.make initial_capacity no_meta;
    rpayloads = Array.make initial_capacity empty_slot;
    rhead = 0;
    rlen = 0;
    next_seq = 0;
    pushed = 0;
    pops = 0;
    max_depth = 0;
    popped_time = 0;
    popped_meta = no_meta;
  }

let is_empty q = q.size = 0 && q.rlen = 0

let length q = q.size + q.rlen

let extend a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Slots in use always equal [size], and slots [0..size+nfree-1] have
   been handed out, so a full heap has no free slot and the next fresh
   one is [size]. *)
let grow_heap q =
  let cap = 2 * Array.length q.times in
  q.times <- extend q.times cap 0;
  q.seqs <- extend q.seqs cap 0;
  q.metas <- extend q.metas cap no_meta;
  q.slots <- extend q.slots cap 0;
  q.payloads <- extend q.payloads cap empty_slot;
  q.free <- extend q.free cap 0

let heap_push (q : 'a t) ~time ~seq ~meta (payload : 'a) =
  if q.size = Array.length q.times then grow_heap q;
  let slot =
    if q.nfree > 0 then begin
      q.nfree <- q.nfree - 1;
      q.free.(q.nfree)
    end
    else q.size
  in
  q.payloads.(slot) <- Obj.repr payload;
  (* Hole-based sift-up: slide larger parents down, write once. *)
  let times = q.times and seqs = q.seqs in
  let i = ref q.size in
  q.size <- q.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let pt = times.(p) in
    if time < pt || (time = pt && seq < seqs.(p)) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(p);
      q.metas.(!i) <- q.metas.(p);
      q.slots.(!i) <- q.slots.(p);
      i := p
    end
    else continue := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  q.metas.(!i) <- meta;
  q.slots.(!i) <- slot

(* Unroll the ring into fresh arrays of twice the size, head at 0. *)
let grow_ring q =
  let cap = Array.length q.rseqs in
  let unroll a fill =
    let b = Array.make (2 * cap) fill in
    let first = cap - q.rhead in
    Array.blit a q.rhead b 0 first;
    Array.blit a 0 b first (cap - first);
    b
  in
  q.rseqs <- unroll q.rseqs 0;
  q.rmetas <- unroll q.rmetas no_meta;
  q.rpayloads <- unroll q.rpayloads empty_slot;
  q.rhead <- 0

let ring_push (q : 'a t) ~time ~seq ~meta (payload : 'a) =
  if q.rlen = Array.length q.rseqs then grow_ring q;
  let i = (q.rhead + q.rlen) land (Array.length q.rseqs - 1) in
  q.rtime <- time;
  q.rseqs.(i) <- seq;
  q.rmetas.(i) <- meta;
  q.rpayloads.(i) <- Obj.repr payload;
  q.rlen <- q.rlen + 1

let push_entry q ~time ~meta payload =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  q.pushed <- q.pushed + 1;
  if time = q.popped_time && (q.rlen = 0 || q.rtime = time) then
    ring_push q ~time ~seq ~meta payload
  else heap_push q ~time ~seq ~meta payload;
  let depth = q.size + q.rlen in
  if depth > q.max_depth then q.max_depth <- depth

let push q ~time payload = push_entry q ~time ~meta:no_meta payload

let push_msg q ~time ~src ~dst payload =
  push_entry q ~time ~meta:(pack_meta ~src ~dst) payload

(* Does the ring hold the earliest entry?  Both parts non-empty. *)
let ring_first q =
  let ht = q.times.(0) in
  q.rtime < ht || (q.rtime = ht && q.rseqs.(q.rhead) < q.seqs.(0))

let top_time q =
  if q.rlen > 0 then if q.size > 0 && q.times.(0) < q.rtime then q.times.(0) else q.rtime
  else if q.size > 0 then q.times.(0)
  else raise Not_found

let peek_key q =
  if q.rlen > 0 && (q.size = 0 || ring_first q) then Some (q.rtime, q.rseqs.(q.rhead))
  else if q.size > 0 then Some (q.times.(0), q.seqs.(0))
  else None

(* Ascending (time, seq) order, independent of the heap's internal
   layout: sort an index permutation of the heap rather than the heap
   itself (the queue must stay untouched — fingerprinting happens
   mid-run), then merge it with the ring, which is already sorted. *)
let fold_keys_sorted f q acc =
  let n = q.size in
  let idx = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = compare (q.times.(a) : int) q.times.(b) in
      if c <> 0 then c else compare (q.seqs.(a) : int) q.seqs.(b))
    idx;
  let mask = Array.length q.rseqs - 1 in
  let acc = ref acc and i = ref 0 and r = ref 0 in
  while !i < n || !r < q.rlen do
    let ring_next =
      !r < q.rlen
      && (!i >= n
         ||
         let j = idx.(!i) and rs = q.rseqs.((q.rhead + !r) land mask) in
         q.rtime < q.times.(j) || (q.rtime = q.times.(j) && rs < q.seqs.(j)))
    in
    if ring_next then begin
      acc := f q.rtime q.rseqs.((q.rhead + !r) land mask) !acc;
      incr r
    end
    else begin
      let j = idx.(!i) in
      acc := f q.times.(j) q.seqs.(j) !acc;
      incr i
    end
  done;
  !acc

let ring_pop (q : 'a t) : 'a =
  let h = q.rhead in
  let payload = Obj.obj q.rpayloads.(h) in
  q.rpayloads.(h) <- empty_slot;
  q.popped_time <- q.rtime;
  q.popped_meta <- q.rmetas.(h);
  q.rhead <- (h + 1) land (Array.length q.rseqs - 1);
  q.rlen <- q.rlen - 1;
  payload

let heap_pop (q : 'a t) : 'a =
  let slot = q.slots.(0) in
  let payload = Obj.obj q.payloads.(slot) in
  q.payloads.(slot) <- empty_slot;
  q.free.(q.nfree) <- slot;
  q.nfree <- q.nfree + 1;
  q.popped_time <- q.times.(0);
  q.popped_meta <- q.metas.(0);
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then begin
    (* Move the last element into the root hole and sift it down. *)
    let times = q.times and seqs = q.seqs in
    let mt = times.(n) and ms = seqs.(n) in
    let mm = q.metas.(n) and mslot = q.slots.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let first = (4 * !i) + 1 in
      if first >= n then continue := false
      else begin
        (* Smallest of the (up to four) children. *)
        let last = if first + 3 < n then first + 3 else n - 1 in
        let c = ref first in
        let ct = ref times.(first) in
        for k = first + 1 to last do
          let kt = times.(k) in
          if kt < !ct || (kt = !ct && seqs.(k) < seqs.(!c)) then begin
            c := k;
            ct := kt
          end
        done;
        let c = !c and ct = !ct in
        if ct < mt || (ct = mt && seqs.(c) < ms) then begin
          times.(!i) <- ct;
          seqs.(!i) <- seqs.(c);
          q.metas.(!i) <- q.metas.(c);
          q.slots.(!i) <- q.slots.(c);
          i := c
        end
        else continue := false
      end
    done;
    times.(!i) <- mt;
    seqs.(!i) <- ms;
    q.metas.(!i) <- mm;
    q.slots.(!i) <- mslot
  end;
  payload

let pop_payload (q : 'a t) : 'a =
  let payload =
    if q.rlen > 0 && (q.size = 0 || ring_first q) then ring_pop q
    else if q.size > 0 then heap_pop q
    else raise Not_found
  in
  q.pops <- q.pops + 1;
  payload

let pop q =
  let payload = pop_payload q in
  (q.popped_time, payload)

let popped_time q = q.popped_time

let popped_src q = if q.popped_meta < 0 then -1 else q.popped_meta lsr 20

let popped_dst q = if q.popped_meta < 0 then -1 else q.popped_meta land 0xfffff

let pushes q = q.pushed

let pops q = q.pops

let max_depth q = q.max_depth

(* The reference kernel perfbench/run.py times between simulations.

   A fixed host workload of the simulator's kind — minor-heap
   allocation, hash-table updates, list building and traversal — written
   against the standard library only, so changes to the simulator's
   libraries leave it alone.  perfbench/dune builds it with fixed flags,
   so a change to the repository's build flags or profile moves the
   simulator and not this kernel.  Timed in its own process between
   simulations, it gives the host speed at that moment; run.py divides
   loop times by it.  Prints the median of five timings as JSON. *)

let kernel () =
  let t0 = Unix.gettimeofday () in
  let h = Hashtbl.create 1024 in
  for i = 0 to 100_000 do
    Hashtbl.replace h (i land 0x3ffff) (Array.make 4 i)
  done;
  let l = ref [] in
  for i = 0 to 150_000 do
    l := (i, string_of_int i) :: !l
  done;
  ignore (Sys.opaque_identity (List.fold_left (fun acc (i, s) -> acc + i + String.length s) 0 !l));
  Unix.gettimeofday () -. t0

let () =
  let times = List.sort compare (List.init 5 (fun _ -> kernel ())) in
  Printf.printf "{\"ref_s\":%.17g}\n" (List.nth times 2)

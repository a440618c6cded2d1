(** See procpool.mli. *)

(* Outcome of one thunk.  Exceptions cannot be marshalled usefully
   across a process boundary (the reader gets a structurally equal but
   unmatchable block), so they are flattened to strings — in the child
   and, for one contract at every [jobs], in the inline path too — and
   re-raised as [Cell_failed] once every cell has run. *)
type 'a outcome = Ok_ of 'a | Error_ of string * string

exception Cell_failed of string

let default_jobs () = Domain.recommended_domain_count ()

let guard f =
  try Ok_ (f ()) with e -> Error_ ("raised: " ^ Printexc.to_string e, Printexc.get_backtrace ())

let rec read_all buf chunk fd =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 -> Buffer.contents buf
  | n ->
    Buffer.add_subbytes buf chunk 0 n;
    read_all buf chunk fd
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_all buf chunk fd

let rec waitpid pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let rec write_all fd b off =
  if off < Bytes.length b then write_all fd b (off + Unix.write fd b off (Bytes.length b - off))

(* Child body of worker [w]: run the cells [i mod jobs = w] and write
   one [(i, marshalled outcome)] list to [wr].  Each outcome is
   marshalled on its own, so a result that cannot cross the pipe fails
   its own cell, not the worker. *)
let child ~jobs ~w thunks wr =
  let encoded = ref [] in
  for i = Array.length thunks - 1 downto 0 do
    if i mod jobs = w then begin
      let bytes =
        try Marshal.to_string (guard thunks.(i)) []
        with e ->
          let msg = "returned a value that cannot be marshalled: " ^ Printexc.to_string e in
          Marshal.to_string (Error_ (msg, "") : unit outcome) []
      in
      encoded := (i, bytes) :: !encoded
    end
  done;
  write_all wr (Marshal.to_bytes (!encoded : (int * string) list) []) 0

let status_name = function
  | Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "was killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "was stopped by signal %d" s

let run_forked ~jobs thunks results =
  (* Flush before forking so no buffered output is duplicated into the
     children. *)
  flush stdout;
  flush stderr;
  let spawn w =
    let rd, wr = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
      Unix.close rd;
      (* _exit: skip at_exit handlers — the parent owns the formatters
         and any tempfile cleanups.  Nothing may escape into the
         parent's code, which this process shares after the fork. *)
      (try child ~jobs ~w thunks wr with _ -> Unix._exit 2);
      Unix._exit 0
    | pid ->
      Unix.close wr;
      (pid, rd)
  in
  let workers = Array.init jobs spawn in
  (* Read every worker to the end and reap it before anything is
     raised: a worker blocked writing a large result, or left unreaped,
     must not outlive a sibling's failure. *)
  let chunk = Bytes.create 65_536 in
  Array.iteri
    (fun w (pid, rd) ->
      let raw = read_all (Buffer.create 4_096) chunk rd in
      Unix.close rd;
      let failure =
        match waitpid pid with
        | Unix.WEXITED 0 -> (
          try
            List.iter
              (fun (i, b) -> results.(i) <- Marshal.from_string b 0)
              (Marshal.from_string raw 0 : (int * string) list);
            None
          with e -> Some ("sent an unreadable result: " ^ Printexc.to_string e))
        | status -> Some (status_name status)
      in
      Option.iter
        (fun e ->
          let lost = Error_ (Printf.sprintf "lost worker process %d, which %s" w e, "") in
          Array.iteri (fun i _ -> if i mod jobs = w then results.(i) <- lost) results)
        failure)
    workers

let run ~jobs thunks =
  let thunks = Array.of_list thunks in
  let n = Array.length thunks in
  let jobs = max 1 (min jobs n) in
  let results =
    if jobs = 1 then Array.map guard thunks
    else begin
      let results = Array.make n (Error_ ("produced no result", "")) in
      run_forked ~jobs thunks results;
      results
    end
  in
  (* Lowest-index failure wins. *)
  Array.to_list
    (Array.mapi
       (fun i -> function
         | Ok_ v -> v
         | Error_ (msg, bt) ->
           raise
             (Cell_failed
                (Printf.sprintf "cell %d %s%s" i msg (if bt = "" then "" else "\n" ^ bt))))
       results)

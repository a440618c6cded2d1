(* Static-analysis driver: run Check.Analyzer (token lint + cross-file
   protocol-flow rules) over OCaml sources.

   Usage: lint [--rule RULE]... [PATH ...]    (defaults to lib/)
     --rule RULE          report only RULE (repeatable)

   Exits 1 when any finding survives the allow markers, 2 on usage or
   I/O errors. *)

let usage () =
  prerr_endline "usage: lint [--rule RULE]... [PATH ...]";
  exit 2

let () =
  let rules = ref [] in
  let paths = ref [] in
  let rec parse = function
    | [] -> ()
    | "--rule" :: v :: rest ->
      if not (List.mem v Check.Analyzer.rule_names) then begin
        Printf.eprintf "lint: unknown rule '%s' (known: %s)\n" v
          (String.concat ", " Check.Analyzer.rule_names);
        usage ()
      end;
      rules := v :: !rules;
      parse rest
    | [ "--rule" ] | ("--help" | "-h") :: _ -> usage ()
    | p :: rest ->
      if String.length p > 0 && p.[0] = '-' then begin
        Printf.eprintf "lint: unknown option '%s'\n" p;
        usage ()
      end;
      paths := p :: !paths;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let paths = match List.rev !paths with [] -> [ "lib" ] | ps -> ps in
  let sources =
    try Check.Analyzer.scan_paths paths
    with Sys_error msg ->
      Printf.eprintf "lint: %s\n" msg;
      exit 2
  in
  let rules = match List.rev !rules with [] -> None | rs -> Some rs in
  let report = Check.Analyzer.analyze ?rules sources in
  print_string (Check.Analyzer.render_text report);
  match report.Check.Analyzer.findings with
  | [] -> ()
  | fs ->
    Printf.eprintf
      "lint: %d finding(s); fix or annotate with (* lint: allow <rule> ... *)\n"
      (List.length fs);
    exit 1

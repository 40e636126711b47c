(* CONGEST conformance lint driver:

     dune exec tools/lint/lint.exe                     # lint lib/ bin/ bench/ sdbench/
     dune exec tools/lint/lint.exe -- --json lint_results.json lib

   Exits non-zero iff any finding survives the allow list. *)

let () =
  let roots = ref [] in
  let json_path = ref "" in
  let allow = ref Lint_core.default_config.Lint_core.allow in
  let disabled = ref [] in
  let list_rules = ref false in
  let spec =
    [
      ( "--json",
        Arg.Set_string json_path,
        "FILE  write machine-readable results (lint_results.json)" );
      ( "--allow",
        Arg.String
          (fun s ->
            match String.index_opt s ':' with
            | Some i ->
                allow :=
                  ( String.sub s 0 i,
                    String.sub s (i + 1) (String.length s - i - 1) )
                  :: !allow
            | None ->
                raise (Arg.Bad (Printf.sprintf "--allow %S: want RULE:PATH" s))
          ),
        "RULE:PATH  suppress RULE in files whose path contains PATH" );
      ( "--disable",
        Arg.String (fun s -> disabled := s :: !disabled),
        "RULE  switch a rule off entirely" );
      ("--rules", Arg.Set list_rules, " list the rules and exit");
    ]
  in
  Arg.parse spec
    (fun r -> roots := r :: !roots)
    "lint [options] [DIR ...]   (default: lib bin bench sdbench)";
  if !list_rules then begin
    List.iter
      (fun (name, doc) -> Printf.printf "%-18s %s\n" name doc)
      Lint_core.rules;
    exit 0
  end;
  let config = { Lint_core.disabled = !disabled; allow = !allow } in
  let roots =
    if !roots = [] then [ "lib"; "bin"; "bench"; "sdbench" ] else List.rev !roots
  in
  let files = Lint_core.ml_files roots in
  if files = [] then begin
    Printf.eprintf "lint: no .ml files under %s\n" (String.concat " " roots);
    exit 2
  end;
  let findings =
    Lint_core.sort_findings
      (List.concat_map (fun f -> Lint_core.lint_file ~config f) files)
  in
  List.iter
    (fun f -> Format.printf "%a@." Lint_core.pp_finding f)
    findings;
  if !json_path <> "" then begin
    let oc = open_out !json_path in
    output_string oc
      (Lint_core.to_json ~files_scanned:(List.length files) findings);
    output_char oc '\n';
    close_out oc
  end;
  Printf.printf "lint: %d file(s) scanned, %d finding(s)\n"
    (List.length files) (List.length findings);
  exit (if findings = [] then 0 else 1)

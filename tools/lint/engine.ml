(* kitdpe_lint driver: walk the roots, parse every .ml/.mli with
   compiler-libs, run the rule set, apply inline suppressions and the
   optional baseline, render text or JSON, and exit nonzero on errors.

   Inline suppression: a comment containing
     kitdpe-lint: allow CT01 CT02
   suppresses those rule ids on the comment's own line and on the line
   after it (so the comment can sit above the offending expression).

   Baseline file: one entry per line, "RULE path:line", '#' comments
   allowed — the format --write-baseline emits.  Baselined findings are
   dropped before the exit code is computed, which lets a rule land
   before the tree is fully clean. *)

(* ---- file discovery ---- *)

let wanted path =
  Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"

(* [_build], [.git] and any directory named [fixtures] are skipped while
   walking — the lint fixtures are deliberate violations — but a root
   given explicitly on the command line is always entered, which is how
   the test suite lints the fixture tree itself. *)
let rec walk ~is_root acc path =
  if Sys.file_exists path && Sys.is_directory path then begin
    let base = Filename.basename path in
    if (not is_root) && (String.equal base "_build" || String.equal base ".git" || String.equal base "fixtures")
    then acc
    else
      Sys.readdir path |> Array.to_list
      |> List.sort String.compare
      |> List.fold_left (fun acc name -> walk ~is_root:false acc (Filename.concat path name)) acc
  end
  else if wanted path then path :: acc
  else acc

let discover roots =
  List.rev (List.fold_left (fun acc r -> walk ~is_root:true acc r) [] roots)

(* ---- reading & parsing ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_error_finding ~path exn =
  let line, col, msg =
    match Location.error_of_exn exn with
    | Some (`Ok report) ->
      let loc = report.Location.main.Location.loc in
      let p = loc.Location.loc_start in
      ( p.Lexing.pos_lnum,
        p.Lexing.pos_cnum - p.Lexing.pos_bol,
        Format.asprintf "%t" report.Location.main.Location.txt )
    | _ -> (1, 0, Printexc.to_string exn)
  in
  { Rule.rule = "PARSE";
    severity = Rule.Error;
    file = path;
    line;
    col;
    message = "unparseable source: " ^ msg }

let parse_source path content =
  let lexbuf = Lexing.from_string content in
  Lexing.set_filename lexbuf path;
  if Filename.check_suffix path ".mli" then
    Rule.make_source ~path ~impl:None ~intf:(Some (Parse.interface lexbuf))
  else Rule.make_source ~path ~impl:(Some (Parse.implementation lexbuf)) ~intf:None

(* ---- inline suppressions ---- *)

let is_rule_char c = (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || Char.equal c '_'

let index_of_sub s sub from =
  let ns = String.length s and nsub = String.length sub in
  let rec go i =
    if i + nsub > ns then None
    else if String.equal (String.sub s i nsub) sub then Some i
    else go (i + 1)
  in
  go from

(* rule ids named on one suppression line *)
let rules_on_line line =
  match index_of_sub line "kitdpe-lint:" 0 with
  | None -> []
  | Some i ->
    (match index_of_sub line "allow" (i + String.length "kitdpe-lint:") with
     | None -> []
     | Some j ->
       let rest = String.sub line (j + 5) (String.length line - j - 5) in
       let acc = ref [] and buf = Buffer.create 8 in
       let flush () =
         if Buffer.length buf > 0 then begin
           acc := Buffer.contents buf :: !acc;
           Buffer.clear buf
         end
       in
       String.iter
         (fun c -> if is_rule_char c then Buffer.add_char buf c else flush ())
         rest;
       flush ();
       List.rev !acc)

(* (line, rule) pairs; each covers its own line and the next one *)
let suppressions content =
  let lines = String.split_on_char '\n' content in
  List.concat (List.mapi (fun i l -> List.map (fun r -> (i + 1, r)) (rules_on_line l)) lines)

let suppressed supps (f : Rule.finding) =
  List.exists
    (fun (line, rule) ->
      String.equal rule f.Rule.rule && (f.Rule.line = line || f.Rule.line = line + 1))
    supps

(* ---- running ---- *)

type result = {
  findings : Rule.finding list;  (* post-suppression, sorted; both tiers *)
  files_scanned : int;  (* sources parsed by the syntactic tier *)
  typed_cmts : int;  (* .cmt artifacts discovered (0 = nothing was built) *)
  typed_units : int;  (* typed units in scope and analyzed *)
}

let compare_findings (a : Rule.finding) (b : Rule.finding) =
  let c = String.compare a.Rule.file b.Rule.file in
  if c <> 0 then c
  else
    let c = Int.compare a.Rule.line b.Rule.line in
    if c <> 0 then c
    else
      let c = Int.compare a.Rule.col b.Rule.col in
      if c <> 0 then c else String.compare a.Rule.rule b.Rule.rule

(* The typed tier: load every .cmt in scope and run the typed rules,
   sharing the inline-suppression convention (comments are read from the
   resolved source text, which the typedtree locations index into). *)
let run_typed ~roots =
  let loaded = Typed_load.load ~roots in
  let findings =
    List.concat_map
      (fun (u : Typed_common.unit_info) ->
        let supps = suppressions u.Typed_common.content in
        List.concat_map
          (fun (r : Typed_common.trule) -> r.Typed_common.check u)
          All_typed_rules.all
        |> List.filter (fun f -> not (suppressed supps f)))
      loaded.Typed_load.units
  in
  (findings, loaded.Typed_load.cmts_seen, List.length loaded.Typed_load.units)

let run_with ~typed ~roots =
  let files = discover roots in
  let syntactic =
    List.concat_map
      (fun path ->
        let content = read_file path in
        match parse_source path content with
        | exception exn -> [ parse_error_finding ~path exn ]
        | src ->
          let supps = suppressions content in
          List.concat_map (fun (r : Rule.t) -> r.Rule.check src) All_rules.all
          |> List.filter (fun f -> not (suppressed supps f)))
      files
  in
  let typed_findings, typed_cmts, typed_units =
    if typed then run_typed ~roots else ([], 0, 0)
  in
  { findings = List.sort compare_findings (syntactic @ typed_findings);
    files_scanned = List.length files;
    typed_cmts;
    typed_units }

(* both tiers — what the CLI, CI and the test suite run by default *)
let run ~roots = run_with ~typed:true ~roots

let errors result =
  List.filter (fun (f : Rule.finding) -> f.Rule.severity = Rule.Error) result.findings

(* ---- baseline ---- *)

let baseline_key (f : Rule.finding) =
  Printf.sprintf "%s %s:%d" f.Rule.rule f.Rule.file f.Rule.line

let load_baseline path =
  if not (Sys.file_exists path) then []
  else
    read_file path |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           let l = String.trim l in
           if String.equal l "" || Char.equal l.[0] '#' then None else Some l)

let apply_baseline entries result =
  { result with
    findings =
      List.filter (fun f -> not (List.mem (baseline_key f) entries)) result.findings }

(* ---- rendering ---- *)

let to_json ~roots result =
  let module J = Obs.Json in
  let finding (f : Rule.finding) =
    J.Obj
      [ ("rule", J.Str f.Rule.rule);
        ("severity", J.Str (Rule.severity_to_string f.Rule.severity));
        ("file", J.Str f.Rule.file);
        ("line", J.int f.Rule.line);
        ("col", J.int f.Rule.col);
        ("message", J.Str f.Rule.message) ]
  in
  let by_rule =
    List.fold_left
      (fun acc (f : Rule.finding) ->
        match List.assoc_opt f.Rule.rule acc with
        | Some n -> (f.Rule.rule, n + 1) :: List.remove_assoc f.Rule.rule acc
        | None -> (f.Rule.rule, 1) :: acc)
      [] result.findings
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  J.to_string
    (J.Obj
       [ ("version", J.int 1);
         ("roots", J.Arr (List.map (fun r -> J.Str r) roots));
         ("files_scanned", J.int result.files_scanned);
         ("typed_cmts", J.int result.typed_cmts);
         ("typed_units", J.int result.typed_units);
         ("findings", J.Arr (List.map finding result.findings));
         ("summary",
          J.Obj
            [ ("total", J.int (List.length result.findings));
              ("errors", J.int (List.length (errors result)));
              ("by_rule", J.Obj (List.map (fun (rule, n) -> (rule, J.int n)) by_rule)) ]) ])

let print_text result =
  List.iter
    (fun (f : Rule.finding) ->
      Printf.printf "%s:%d:%d: [%s] %s: %s\n" f.Rule.file f.Rule.line f.Rule.col f.Rule.rule
        (Rule.severity_to_string f.Rule.severity)
        f.Rule.message)
    result.findings

(* ---- CLI ---- *)

let usage =
  "kitdpe_lint [options] [root ...]\n\
   Crypto-hygiene & concurrency lint for the kitdpe tree (default roots: lib bin bench test).\n\
   Two tiers: syntactic rules over the parsetree, and typed rules (SECFLOW01,\n\
   DOM01, DOM02) over the .cmt artifacts dune produces — build the tree first\n\
   (`dune build @check`) or the typed tier fails loudly.\n\n\
   Options:\n\
  \  --json FILE            write a JSON report to FILE\n\
  \  --sarif FILE           write a SARIF 2.1.0 report to FILE (GitHub code scanning)\n\
  \  --baseline FILE        ignore findings listed in FILE\n\
  \  --write-baseline FILE  write current findings to FILE and exit 0\n\
  \  --no-typed             skip the typed (.cmt) tier\n\
  \  --list-rules           print the rule set and exit\n\
  \  --quiet                suppress per-finding text output\n\
  \  --help                 this message\n"

type opts = {
  mutable json : string option;
  mutable sarif : string option;
  mutable baseline : string option;
  mutable write_baseline : string option;
  mutable quiet : bool;
  mutable typed : bool;
  mutable roots : string list;
}

let rule_meta () =
  List.map
    (fun (r : Rule.t) -> (r.Rule.id, r.Rule.severity, r.Rule.doc))
    All_rules.all
  @ List.map
      (fun (r : Typed_common.trule) ->
        (r.Typed_common.id, r.Typed_common.severity, r.Typed_common.doc))
      All_typed_rules.all

let list_rules () =
  List.iter
    (fun (id, severity, doc) ->
      Printf.printf "%-9s %-7s %s\n" id (Rule.severity_to_string severity) doc)
    (rule_meta ())

let split_eq arg =
  (* "--json=FILE" -> ("--json", Some "FILE") *)
  match String.index_opt arg '=' with
  | Some i when String.length arg > 2 && String.equal (String.sub arg 0 2) "--" ->
    (String.sub arg 0 i, Some (String.sub arg (i + 1) (String.length arg - i - 1)))
  | _ -> (arg, None)

let main () =
  let o =
    { json = None; sarif = None; baseline = None; write_baseline = None;
      quiet = false; typed = true; roots = [] }
  in
  let die msg = prerr_string (msg ^ "\n\n" ^ usage); exit 2 in
  let rec parse = function
    | [] -> ()
    | arg :: rest ->
      let flag, inline_value = split_eq arg in
      let value rest k =
        match inline_value, rest with
        | Some v, _ -> k v rest
        | None, v :: rest -> k v rest
        | None, [] -> die (flag ^ " needs an argument")
      in
      (match flag with
       | "--json" -> value rest (fun v rest -> o.json <- Some v; parse rest)
       | "--sarif" -> value rest (fun v rest -> o.sarif <- Some v; parse rest)
       | "--baseline" -> value rest (fun v rest -> o.baseline <- Some v; parse rest)
       | "--write-baseline" ->
         value rest (fun v rest -> o.write_baseline <- Some v; parse rest)
       | "--no-typed" -> o.typed <- false; parse rest
       | "--quiet" | "-q" -> o.quiet <- true; parse rest
       | "--list-rules" -> list_rules (); exit 0
       | "--help" | "-h" -> print_string usage; exit 0
       | _ ->
         if String.length flag > 0 && Char.equal flag.[0] '-' then
           die ("unknown option " ^ flag)
         else begin
           o.roots <- arg :: o.roots;
           parse rest
         end)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let roots =
    match List.rev o.roots with [] -> [ "lib"; "bin"; "bench"; "test" ] | roots -> roots
  in
  List.iter
    (fun r -> if not (Sys.file_exists r) then die ("no such root: " ^ r))
    roots;
  let result = run_with ~typed:o.typed ~roots in
  (* silent-skip guard: a typed run that found no build artifacts at all
     would vacuously pass — fail loudly instead (CI builds @check first) *)
  if o.typed && result.typed_cmts = 0 then begin
    prerr_string
      "kitdpe_lint: typed tier found no .cmt artifacts under the given roots.\n\
       Build them first (`dune build @check` or a full `dune build`), or pass\n\
       --no-typed to run the syntactic tier alone.\n";
    exit 2
  end;
  (match o.write_baseline with
   | Some path ->
     let oc = open_out path in
     output_string oc "# kitdpe_lint baseline — one \"RULE path:line\" per line\n";
     List.iter (fun f -> output_string oc (baseline_key f ^ "\n")) result.findings;
     close_out oc;
     Printf.printf "wrote %d baseline entries to %s\n" (List.length result.findings) path;
     exit 0
   | None -> ());
  let result =
    match o.baseline with
    | Some path -> apply_baseline (load_baseline path) result
    | None -> result
  in
  if not o.quiet then print_text result;
  (match o.json with
   | Some path ->
     let oc = open_out path in
     output_string oc (to_json ~roots result);
     output_string oc "\n";
     close_out oc
   | None -> ());
  (match o.sarif with
   | Some path ->
     let oc = open_out path in
     output_string oc (Sarif.render ~rules:(rule_meta ()) result.findings);
     output_string oc "\n";
     close_out oc
   | None -> ());
  let errs = List.length (errors result) in
  Printf.printf "kitdpe_lint: %d finding%s (%d error%s) in %d files (%d typed units)\n"
    (List.length result.findings)
    (if List.length result.findings = 1 then "" else "s")
    errs
    (if errs = 1 then "" else "s")
    result.files_scanned
    result.typed_units;
  exit (if errs > 0 then 1 else 0)

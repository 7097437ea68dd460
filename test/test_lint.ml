(* kitdpe_lint test suite.

   Two halves:
   - fixture tests: each known-bad file under fixtures/lint/tree/ must
     produce exactly the expected (rule, line) findings, the known-good
     and suppressed files must produce none;
   - the real repository must lint clean (the CI gate in code form).

   The fixture tree mimics the repo layout (lib/crypto/..., lib/bignum/
   ...) because rules are path-scoped and the engine matches directory
   segments anywhere in the path. *)

module Engine = Lint_core.Engine
module Rule = Lint_core.Rule

let fixture path = Filename.concat "fixtures/lint/tree" path

let findings_of path = (Engine.run ~roots:[ fixture path ]).Engine.findings

let pairs fs = List.map (fun (f : Rule.finding) -> (f.Rule.rule, f.Rule.line)) fs

let check_findings name path expected =
  Alcotest.(check (list (pair string int))) name expected (pairs (findings_of path))

let check_errors_nonzero path =
  let r = Engine.run ~roots:[ fixture path ] in
  Alcotest.(check bool)
    (path ^ " has error findings")
    true
    (Engine.errors r <> [])

(* ---- fixtures: one known-bad file per rule ---- *)

let test_ct01 () =
  check_findings "CT01 fixture" "lib/crypto/bad_ct01.ml"
    [ ("CT01", 2); ("CT01", 4) ];
  check_errors_nonzero "lib/crypto/bad_ct01.ml"

let test_ct01_bignum () =
  (* Montgomery-internals coverage: exponent-named identifiers compared
     with (=)/(<>) inside lib/bignum are variable-time leaks too *)
  check_findings "CT01 bignum fixture" "lib/bignum/bad_ct01_mont.ml"
    [ ("CT01", 2); ("CT01", 4) ];
  check_errors_nonzero "lib/bignum/bad_ct01_mont.ml"

let test_ct02 () =
  check_findings "CT02 fixture" "lib/bignum/bad_ct02.ml"
    [ ("CT02", 2); ("CT02", 4) ];
  check_errors_nonzero "lib/bignum/bad_ct02.ml"

let test_rng01 () =
  check_findings "RNG01 fixture" "lib/dpe/bad_rng01.ml"
    [ ("RNG01", 2); ("RNG01", 4) ];
  check_errors_nonzero "lib/dpe/bad_rng01.ml"

let test_unsafe01 () =
  check_findings "UNSAFE01 fixture" "lib/dpe/bad_unsafe01.ml"
    [ ("UNSAFE01", 2); ("UNSAFE01", 4) ];
  check_errors_nonzero "lib/dpe/bad_unsafe01.ml"

let test_exn01 () =
  check_findings "EXN01 fixture" "lib/mining/bad_exn01.ml"
    [ ("EXN01", 4); ("EXN01", 5) ];
  check_errors_nonzero "lib/mining/bad_exn01.ml"

let test_mli01 () =
  check_findings "MLI01 fixture" "lib/minidb/no_mli.ml" [ ("MLI01", 1) ];
  check_errors_nonzero "lib/minidb/no_mli.ml"

let test_err01 () =
  check_findings "ERR01 fixture" "lib/fault/bad_err01.ml"
    [ ("ERR01", 2); ("ERR01", 4) ];
  check_errors_nonzero "lib/fault/bad_err01.ml"

let test_obs02 () =
  check_findings "OBS02 fixture" "lib/obs/bad_obs02.ml"
    [ ("OBS02", 2); ("OBS02", 4) ];
  check_errors_nonzero "lib/obs/bad_obs02.ml"

let test_perf01 () =
  check_findings "PERF01 fixture" "lib/mining/bad_perf01.ml"
    [ ("PERF01", 2); ("PERF01", 4) ];
  check_errors_nonzero "lib/mining/bad_perf01.ml"

(* ---- fixtures: typed tier (SECFLOW01 / DOM01 / DOM02) ----

   These fixtures are a real dune library (typedfix, linked into this
   test so its .cmt artifacts exist); the typed rules read the compiled
   typedtree, so each test also asserts the unit actually loaded. *)

let check_typed_findings name path expected =
  let r = Engine.run ~roots:[ fixture path ] in
  Alcotest.(check int) (name ^ " unit loaded") 1 r.Engine.typed_units;
  Alcotest.(check (list (pair string int))) name expected (pairs r.Engine.findings)

let test_secflow01_direct () =
  check_typed_findings "SECFLOW01 direct" "lib/typedfix/bad_secflow.ml"
    [ ("SECFLOW01", 5); ("SECFLOW01", 9); ("SECFLOW01", 13);
      ("SECFLOW01", 16); ("SECFLOW01", 20) ]

let test_secflow01_interproc () =
  (* taint through a propagating helper, reported at the sinking
     helper's call site — the per-parameter summary machinery *)
  check_typed_findings "SECFLOW01 interprocedural"
    "lib/typedfix/bad_secflow_interproc.ml"
    [ ("SECFLOW01", 10); ("SECFLOW01", 13) ]

let test_secflow01_good () =
  check_typed_findings "SECFLOW01 clean" "lib/typedfix/good_secflow.ml" []

let test_dom01 () =
  check_typed_findings "DOM01 fixture" "lib/typedfix/bad_dom01.ml"
    [ ("DOM01", 6); ("DOM01", 12); ("DOM01", 19) ]

let test_dom01_good () =
  (* Atomic, Mutex, per-index array, DLS: all recognized as safe *)
  check_typed_findings "DOM01 clean" "lib/typedfix/good_dom01.ml" []

let test_dom02 () =
  check_typed_findings "DOM02 fixture" "lib/typedfix/bad_dom02.ml"
    [ ("DOM02", 4); ("DOM02", 8) ]

let test_dom02_good () =
  check_typed_findings "DOM02 clean" "lib/typedfix/good_dom02.ml" []

let test_typed_suppression () =
  check_typed_findings "typed inline allow comment"
    "lib/typedfix/suppressed_typed.ml" []

let test_typed_baseline () =
  let r = Engine.run ~roots:[ fixture "lib/typedfix/bad_dom02.ml" ] in
  let keys = List.map Engine.baseline_key r.Engine.findings in
  let filtered = Engine.apply_baseline keys r in
  Alcotest.(check int) "typed findings baselined away" 0
    (List.length filtered.Engine.findings)

let test_no_typed_flag () =
  (* --no-typed must drop exactly the typed tier's findings *)
  let r = Engine.run_with ~typed:false ~roots:[ fixture "lib/typedfix" ] in
  Alcotest.(check int) "no typed units" 0 r.Engine.typed_units;
  Alcotest.(check int) "no typed findings" 0 (List.length r.Engine.findings)

let test_typed_requires_cmts () =
  (* a root with no compiled artifacts loads zero units — the condition
     the CLI turns into a loud exit 2 instead of a vacuous pass *)
  let r = Engine.run ~roots:[ fixture "lib/crypto/bad_ct01.ml" ] in
  Alcotest.(check int) "no cmts under plain fixtures" 0 r.Engine.typed_cmts;
  let typed = Engine.run ~roots:[ fixture "lib/typedfix" ] in
  Alcotest.(check bool) "cmts found under typedfix" true (typed.Engine.typed_cmts > 0)

(* ---- fixtures: clean & suppressed ---- *)

let test_good_clean () =
  check_findings "clean fixture" "lib/crypto/good_clean.ml" []

let test_suppression () =
  check_findings "inline allow comment" "lib/crypto/suppressed.ml" []

let test_whole_fixture_tree () =
  (* walking the whole tree finds every bad file and nothing else *)
  let r = Engine.run ~roots:[ "fixtures/lint/tree" ] in
  let by_rule rule =
    List.length
      (List.filter (fun (f : Rule.finding) -> String.equal f.Rule.rule rule) r.Engine.findings)
  in
  Alcotest.(check int) "CT01 count" 4 (by_rule "CT01");
  Alcotest.(check int) "CT02 count" 2 (by_rule "CT02");
  Alcotest.(check int) "RNG01 count" 2 (by_rule "RNG01");
  Alcotest.(check int) "UNSAFE01 count" 2 (by_rule "UNSAFE01");
  Alcotest.(check int) "EXN01 count" 2 (by_rule "EXN01");
  Alcotest.(check int) "ERR01 count" 2 (by_rule "ERR01");
  Alcotest.(check int) "MLI01 count" 1 (by_rule "MLI01");
  Alcotest.(check int) "PERF01 count" 2 (by_rule "PERF01");
  Alcotest.(check int) "OBS02 count" 2 (by_rule "OBS02");
  Alcotest.(check int) "SECFLOW01 count" 7 (by_rule "SECFLOW01");
  Alcotest.(check int) "DOM01 count" 3 (by_rule "DOM01");
  Alcotest.(check int) "DOM02 count" 2 (by_rule "DOM02");
  Alcotest.(check int) "total" 31 (List.length r.Engine.findings)

(* ---- the JSON and SARIF reports ---- *)

let test_reports_parse () =
  let module J = Obs.Json in
  let roots = [ "fixtures/lint/tree" ] in
  let r = Engine.run ~roots in
  let parse what s =
    match J.parse s with
    | Ok j -> j
    | Error e -> Alcotest.failf "%s report does not parse: %s" what e
  in
  let get k j = Option.get (J.member k j) in
  let items j = Option.get (J.to_list j) in
  let str j = Option.get (J.to_str j) and int j = Option.get (J.to_int j) in
  let want =
    List.map
      (fun (f : Rule.finding) -> (f.Rule.rule, f.Rule.file, f.Rule.line, f.Rule.message))
      r.Engine.findings
  in
  let row = Alcotest.(list (pair (pair string string) (pair int string))) in
  let nest = List.map (fun (a, b, c, d) -> ((a, b), (c, d))) in
  let report = parse "JSON" (Engine.to_json ~roots r) in
  Alcotest.check row "JSON lists every finding" (nest want)
    (nest
       (List.map
          (fun f -> (str (get "rule" f), str (get "file" f), int (get "line" f),
                     str (get "message" f)))
          (items (get "findings" report))));
  Alcotest.(check int) "JSON summary total" (List.length want)
    (int (get "total" (get "summary" report)));
  let sarif =
    parse "SARIF" (Lint_core.Sarif.render ~rules:(Engine.rule_meta ()) r.Engine.findings)
  in
  let run = List.hd (items (get "runs" sarif)) in
  Alcotest.(check int) "SARIF declares every rule" (List.length (Engine.rule_meta ()))
    (List.length (items (get "rules" (get "driver" (get "tool" run)))));
  Alcotest.check row "SARIF lists every finding" (nest want)
    (nest
       (List.map
          (fun res ->
            let loc = get "physicalLocation" (List.hd (items (get "locations" res))) in
            ( str (get "ruleId" res),
              str (get "uri" (get "artifactLocation" loc)),
              int (get "startLine" (get "region" loc)),
              str (get "text" (get "message" res)) ))
          (items (get "results" run))))

(* ---- the baseline mechanism ---- *)

let test_baseline () =
  let r = Engine.run ~roots:[ fixture "lib/minidb/no_mli.ml" ] in
  let keys = List.map Engine.baseline_key r.Engine.findings in
  let filtered = Engine.apply_baseline keys r in
  Alcotest.(check int) "baselined away" 0 (List.length filtered.Engine.findings);
  let unrelated = Engine.apply_baseline [ "CT01 elsewhere.ml:1" ] r in
  Alcotest.(check int) "unrelated baseline keeps findings" 1
    (List.length unrelated.Engine.findings)

(* ---- the real tree lints clean ---- *)

let repo_root () =
  (* tests run in _build/default/test; walk up to the checkout *)
  let rec go dir depth =
    if depth > 8 then None
    else if
      Sys.file_exists (Filename.concat dir "dune-project")
      && Sys.file_exists (Filename.concat dir "lib/crypto")
    then Some dir
    else go (Filename.concat dir Filename.parent_dir_name) (depth + 1)
  in
  go (Sys.getcwd ()) 0

let test_repo_clean () =
  match repo_root () with
  | None -> Alcotest.skip ()
  | Some root ->
    let roots =
      List.map (Filename.concat root) [ "lib"; "bin"; "bench"; "test" ]
    in
    let r = Engine.run ~roots in
    let show (f : Rule.finding) =
      Printf.sprintf "%s:%d [%s] %s" f.Rule.file f.Rule.line f.Rule.rule f.Rule.message
    in
    Alcotest.(check (list string))
      "repository lints clean" [] (List.map show r.Engine.findings);
    Alcotest.(check bool) "scanned a real tree" true (r.Engine.files_scanned > 100)

let () =
  Alcotest.run "lint"
    [ ( "fixtures",
        [ Alcotest.test_case "CT01" `Quick test_ct01;
          Alcotest.test_case "CT01 bignum" `Quick test_ct01_bignum;
          Alcotest.test_case "CT02" `Quick test_ct02;
          Alcotest.test_case "RNG01" `Quick test_rng01;
          Alcotest.test_case "UNSAFE01" `Quick test_unsafe01;
          Alcotest.test_case "EXN01" `Quick test_exn01;
          Alcotest.test_case "ERR01" `Quick test_err01;
          Alcotest.test_case "MLI01" `Quick test_mli01;
          Alcotest.test_case "PERF01" `Quick test_perf01;
          Alcotest.test_case "OBS02" `Quick test_obs02;
          Alcotest.test_case "clean file" `Quick test_good_clean;
          Alcotest.test_case "suppression" `Quick test_suppression;
          Alcotest.test_case "whole tree" `Quick test_whole_fixture_tree;
          Alcotest.test_case "baseline" `Quick test_baseline;
          Alcotest.test_case "JSON and SARIF reports parse" `Quick test_reports_parse ] );
      ( "typed",
        [ Alcotest.test_case "SECFLOW01 direct" `Quick test_secflow01_direct;
          Alcotest.test_case "SECFLOW01 interproc" `Quick test_secflow01_interproc;
          Alcotest.test_case "SECFLOW01 clean" `Quick test_secflow01_good;
          Alcotest.test_case "DOM01" `Quick test_dom01;
          Alcotest.test_case "DOM01 clean" `Quick test_dom01_good;
          Alcotest.test_case "DOM02" `Quick test_dom02;
          Alcotest.test_case "DOM02 clean" `Quick test_dom02_good;
          Alcotest.test_case "typed suppression" `Quick test_typed_suppression;
          Alcotest.test_case "typed baseline" `Quick test_typed_baseline;
          Alcotest.test_case "--no-typed" `Quick test_no_typed_flag;
          Alcotest.test_case "cmt discovery" `Quick test_typed_requires_cmts ] );
      ("repo", [ Alcotest.test_case "lints clean" `Quick test_repo_clean ]) ]

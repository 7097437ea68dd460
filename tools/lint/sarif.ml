(* SARIF 2.1.0 rendering — the interchange format GitHub code scanning
   ingests, so lint findings annotate PRs inline.  One run, one driver
   ("kitdpe_lint"), every rule of both tiers declared under
   [tool.driver.rules]; columns are converted from the 0-based internal
   representation to SARIF's 1-based one. *)

let level = function Rule.Error -> "error" | Rule.Warning -> "warning"

(* GitHub resolves relative URIs against the checkout root; absolute
   paths (the test suite lints with absolute roots) are left alone *)
let uri_of_file f =
  let f = if String.length f > 2 && String.equal (String.sub f 0 2) "./" then
      String.sub f 2 (String.length f - 2)
    else f
  in
  f

let render ~rules (findings : Rule.finding list) =
  let module J = Obs.Json in
  let text s = J.Obj [ ("text", J.Str s) ] in
  let rule (id, severity, doc) =
    J.Obj
      [ ("id", J.Str id);
        ("shortDescription", text doc);
        ("defaultConfiguration", J.Obj [ ("level", J.Str (level severity)) ]) ]
  in
  let result (f : Rule.finding) =
    J.Obj
      [ ("ruleId", J.Str f.Rule.rule);
        ("level", J.Str (level f.Rule.severity));
        ("message", text f.Rule.message);
        ("locations",
         J.Arr
           [ J.Obj
               [ ("physicalLocation",
                  J.Obj
                    [ ("artifactLocation",
                       J.Obj [ ("uri", J.Str (uri_of_file f.Rule.file)) ]);
                      ("region",
                       J.Obj
                         [ ("startLine", J.int (max 1 f.Rule.line));
                           ("startColumn", J.int (f.Rule.col + 1)) ]) ]) ] ]) ]
  in
  J.to_string
    (J.Obj
       [ ("$schema",
          J.Str
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json");
         ("version", J.Str "2.1.0");
         ("runs",
          J.Arr
            [ J.Obj
                [ ("tool",
                   J.Obj
                     [ ("driver",
                        J.Obj
                          [ ("name", J.Str "kitdpe_lint");
                            ("rules", J.Arr (List.map rule rules)) ]) ]);
                  ("results", J.Arr (List.map result findings)) ] ]) ])

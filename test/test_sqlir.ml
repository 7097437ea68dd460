module Ast = Sqlir.Ast
module Lexer = Sqlir.Lexer
module Parser = Sqlir.Parser
module Printer = Sqlir.Printer

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let parse = Parser.parse
let print = Printer.to_string
let roundtrip s = print (parse s)

(* ---- lexer ---- *)

let test_lexer_basics () =
  let toks = Lexer.tokenize "SELECT a, b FROM r WHERE x >= 10" in
  check_int "token count" 10 (List.length toks);
  check_bool "keyword upcased" true
    (List.exists (function Lexer.Kw "SELECT" -> true | _ -> false)
       (Lexer.tokenize "select 1 from r" |> fun l -> l));
  (match Lexer.tokenize "x != 3" with
   | [ Lexer.Ident "x"; Lexer.Sym "<>"; Lexer.Int_lit 3 ] -> ()
   | _ -> Alcotest.fail "!= should normalize to <>");
  (match Lexer.tokenize "'it''s'" with
   | [ Lexer.Str_lit "it's" ] -> ()
   | _ -> Alcotest.fail "quote escape");
  (match Lexer.tokenize "3.25" with
   | [ Lexer.Float_lit f ] -> Alcotest.(check (float 0.0)) "float" 3.25 f
   | _ -> Alcotest.fail "float literal");
  (match Lexer.tokenize "WHERE a = -5" with
   | [ Lexer.Kw "WHERE"; Lexer.Ident "a"; Lexer.Sym "="; Lexer.Int_lit (-5) ] -> ()
   | _ -> Alcotest.fail "negative literal after =");
  check_bool "keyword predicate" true (Lexer.is_keyword "select");
  check_bool "non-keyword" false (Lexer.is_keyword "foo");
  (* the keyword table: case-insensitive, whole words only, and words
     longer than every keyword never reach it *)
  (match Lexer.tokenize "SeLeCt SELECTED selecting" with
   | [ Lexer.Kw "SELECT"; Lexer.Ident "SELECTED"; Lexer.Ident "selecting" ] -> ()
   | _ -> Alcotest.fail "keyword table");
  (match Lexer.tokenize "'' 'a''b''' 'x'" with
   | [ Lexer.Str_lit ""; Lexer.Str_lit "a'b'"; Lexer.Str_lit "x" ] -> ()
   | _ -> Alcotest.fail "string literals");
  match Lexer.tokenize "(a) -3 <= b" with
  | [ Lexer.Sym "("; Lexer.Ident "a"; Lexer.Sym ")"; Lexer.Sym "-"; Lexer.Int_lit 3;
      Lexer.Sym "<="; Lexer.Ident "b" ] -> ()
  | _ -> Alcotest.fail "minus after ) is a symbol"

let test_lexer_errors () =
  (try
     ignore (Lexer.tokenize "SELECT 'unterminated");
     Alcotest.fail "expected lex error"
   with Lexer.Lex_error (_, off) -> check_int "error offset" 7 off);
  List.iter
    (fun s ->
      match Lexer.tokenize s with
      | exception Lexer.Lex_error (msg, off) ->
        check_str "message" "unterminated string literal" msg;
        check_int ("offset in " ^ s) 2 off
      | _ -> Alcotest.fail ("lexed " ^ s))
    [ "a 'abc"; "a 'it''s"; "a '''" ];
  (try
     ignore (Lexer.tokenize "a ? b");
     Alcotest.fail "expected lex error"
   with Lexer.Lex_error _ -> ())

let test_int_literal_range () =
  (match Lexer.tokenize "a = 99999999999999999999999" with
   | exception Lexer.Lex_error (msg, off) ->
     check_str "message" "integer literal out of range" msg;
     check_int "offset" 4 off
   | _ -> Alcotest.fail "overflowing literal lexed");
  (match Parser.parse_result "SELECT a FROM t WHERE a = 99999999999999999999999" with
   | Error e -> check_bool "typed error" true (String.length e > 0)
   | Ok _ -> Alcotest.fail "overflowing literal parsed");
  match Lexer.tokenize ("= " ^ string_of_int max_int ^ " = " ^ string_of_int min_int) with
  | [ Lexer.Sym "="; Lexer.Int_lit hi; Lexer.Sym "="; Lexer.Int_lit lo ] ->
    check_bool "native range kept" true (hi = max_int && lo = min_int)
  | _ -> Alcotest.fail "max_int/min_int literals"

(* ---- parser: positive cases ---- *)

let test_parse_select () =
  let q = parse "SELECT a1 FROM r WHERE a2 > 5" in
  check_int "one item" 1 (List.length q.Ast.select);
  check_bool "where" true (q.Ast.where = Some (Ast.Cmp (Ast.Gt, Ast.attr "a2", Ast.Cint 5)));
  let q2 = parse "SELECT * FROM r" in
  check_bool "star" true (q2.Ast.select = [ Ast.Star ]);
  let q3 = parse "SELECT DISTINCT a FROM r" in
  check_bool "distinct" true q3.Ast.distinct;
  let q4 = parse "SELECT COUNT(*), SUM(x), AVG(y), MIN(z), MAX(w) FROM r" in
  check_int "aggregates" 5 (List.length q4.Ast.select)

let test_parse_joins () =
  let q = parse "SELECT * FROM r JOIN s ON r.id = s.rid JOIN t_ ON s.x = t_.y" in
  check_int "two joins" 2 (List.length q.Ast.joins);
  check_bool "relations" true (Ast.relations q = [ "r"; "s"; "t_" ]);
  let q2 = parse "SELECT * FROM r INNER JOIN s ON r.a = s.b" in
  check_int "inner join" 1 (List.length q2.Ast.joins);
  check_bool "inner kind" true
    ((List.hd q2.Ast.joins).Ast.jkind = Ast.Inner);
  let q3 = parse "SELECT * FROM r, s WHERE r.a = s.b" in
  check_int "comma from" 2 (List.length q3.Ast.from);
  let q4 = parse "SELECT * FROM r LEFT JOIN s ON r.a = s.b" in
  check_bool "left kind" true ((List.hd q4.Ast.joins).Ast.jkind = Ast.Left);
  let q5 = parse "SELECT * FROM r LEFT OUTER JOIN s ON r.a = s.b" in
  check_bool "left outer" true (Ast.equal_query q4 q5);
  check_str "left join prints" "SELECT * FROM r LEFT JOIN s ON r.a = s.b"
    (print q4)

let test_parse_predicates () =
  let q = parse "SELECT * FROM r WHERE a BETWEEN 1 AND 10 AND b IN (1, 2, 3) \
                 OR NOT c LIKE 'x%' AND d IS NOT NULL" in
  (match q.Ast.where with
   | Some p -> check_int "atoms" 4 (List.length (Ast.predicate_atoms p))
   | None -> Alcotest.fail "no where");
  (* constant-first normalization *)
  let q2 = parse "SELECT * FROM r WHERE 5 < a" in
  check_bool "flipped" true
    (q2.Ast.where = Some (Ast.Cmp (Ast.Gt, Ast.attr "a", Ast.Cint 5)));
  let q3 = parse "SELECT * FROM r WHERE a NOT IN (1,2)" in
  (match q3.Ast.where with
   | Some (Ast.Not (Ast.In_list _)) -> ()
   | _ -> Alcotest.fail "NOT IN");
  let q4 = parse "SELECT * FROM r WHERE a NOT BETWEEN 1 AND 2" in
  (match q4.Ast.where with
   | Some (Ast.Not (Ast.Between _)) -> ()
   | _ -> Alcotest.fail "NOT BETWEEN");
  let q5 = parse "SELECT * FROM r WHERE (a = 1 OR b = 2) AND c = 3" in
  (match q5.Ast.where with
   | Some (Ast.And (Ast.Or _, Ast.Cmp _)) -> ()
   | _ -> Alcotest.fail "parenthesized OR under AND")

let test_parse_group_order () =
  let q = parse "SELECT a, COUNT(*) FROM r GROUP BY a HAVING COUNT(*) > 2 \
                 ORDER BY a DESC, b LIMIT 7" in
  check_int "group" 1 (List.length q.Ast.group_by);
  (match q.Ast.having with
   | Some (Ast.Cmp_agg (Ast.Gt, Ast.Count, None, Ast.Cint 2)) -> ()
   | _ -> Alcotest.fail "having");
  check_int "order" 2 (List.length q.Ast.order_by);
  check_bool "desc then asc" true
    (List.map snd q.Ast.order_by = [ Ast.Desc; Ast.Asc ]);
  check_bool "limit" true (q.Ast.limit = Some 7);
  let q2 = parse "SELECT x FROM r HAVING MIN(x) >= 3" in
  (match q2.Ast.having with
   | Some (Ast.Cmp_agg (Ast.Ge, Ast.Min, Some a, Ast.Cint 3)) ->
     check_str "agg arg" "x" a.Ast.name
   | _ -> Alcotest.fail "having min")

let test_aliases () =
  let q = parse "SELECT a AS x, SUM(b) AS total FROM r" in
  (match q.Ast.select with
   | [ Ast.Sel_attr (_, Some "x"); Ast.Sel_agg (Ast.Sum, Some _, Some "total") ] -> ()
   | _ -> Alcotest.fail "alias parse");
  check_str "alias prints" "SELECT a AS x, SUM(b) AS total FROM r" (print q);
  check_str "alias roundtrip" (print q) (roundtrip (print q));
  (* COUNT star with alias *)
  let q2 = parse "SELECT COUNT(*) AS n FROM r" in
  check_str "count alias" "SELECT COUNT(*) AS n FROM r" (print q2)

let test_parse_trailing () =
  ignore (parse "SELECT * FROM r;");
  (try
     ignore (parse "SELECT * FROM r garbage here");
     Alcotest.fail "expected parse error"
   with Parser.Parse_error _ -> ())

let test_parse_errors () =
  let expect_err s =
    match Parser.parse_result s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected parse error for %s" s
  in
  expect_err "FROM r";
  expect_err "SELECT FROM r";
  expect_err "SELECT a FROM";
  expect_err "SELECT a FROM r WHERE";
  expect_err "SELECT a FROM r WHERE a >";
  expect_err "SELECT a FROM r WHERE a BETWEEN 1";
  expect_err "SELECT a FROM r WHERE a IN ()";
  expect_err "SELECT a FROM r LIMIT x";
  expect_err "SELECT SUM(*) FROM r";
  expect_err "SELECT a FROM r JOIN s";
  expect_err "SELECT a FROM r WHERE a LIKE 5";
  expect_err ""

let nested_where ~depth =
  "SELECT a FROM t WHERE " ^ String.make depth '(' ^ "a = 1" ^ String.make depth ')'

let test_parse_depth () =
  (match Parser.parse_result (nested_where ~depth:Parser.max_depth) with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "512 levels rejected: %s" e);
  (match Parser.parse_result (nested_where ~depth:(Parser.max_depth + 1)) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "513 levels accepted");
  (* NOT counts as a level too *)
  (match
     Parser.parse_result
       ("SELECT a FROM t WHERE "
        ^ String.concat "" (List.init (Parser.max_depth + 1) (fun _ -> "NOT "))
        ^ "a = 1")
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "513 NOTs accepted");
  (* a million levels fail fast instead of recursing a million times *)
  let t0 = Unix.gettimeofday () in
  (match Parser.parse_result (nested_where ~depth:1_000_000) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "1M levels accepted");
  let dt = Unix.gettimeofday () -. t0 in
  check_bool (Printf.sprintf "1M levels rejected in %.3f s (< 1 s)" dt) true (dt < 1.0)

(* ---- printer ---- *)

let test_print_canonical () =
  check_str "basic" "SELECT a1 FROM r WHERE a2 > 5" (roundtrip "select a1 from r where a2>5");
  check_str "precedence"
    "SELECT * FROM r WHERE (a = 1 OR b = 2) AND c = 3"
    (roundtrip "SELECT * FROM r WHERE (a = 1 OR b = 2) AND c = 3");
  check_str "not" "SELECT * FROM r WHERE NOT (a = 1 OR b = 2)"
    (roundtrip "SELECT * FROM r WHERE NOT (a = 1 OR b = 2)");
  check_str "float keeps dot" "SELECT * FROM r WHERE a = 2.0"
    (roundtrip "SELECT * FROM r WHERE a = 2.0");
  check_str "string escape" "SELECT * FROM r WHERE a = 'it''s'"
    (roundtrip "SELECT * FROM r WHERE a = 'it''s'");
  check_str "count star" "SELECT COUNT(*) FROM r" (roundtrip "SELECT COUNT(*) FROM r")

(* the printer is linear in predicate size: a 1 MB flat AND chain
   prints fast and round-trips to its own text *)
let test_print_flat_chain () =
  let operands = 1_000_000 / String.length "a = 1 AND " in
  let text =
    "SELECT * FROM t WHERE "
    ^ String.concat " AND " (List.init operands (fun _ -> "a = 1"))
  in
  let q = parse text in
  let t0 = Unix.gettimeofday () in
  let printed = print q in
  let dt = Unix.gettimeofday () -. t0 in
  check_bool "1 MB chain prints back to its input" true (printed = text);
  check_bool (Printf.sprintf "1 MB chain printed in %.3f s (< 1 s)" dt) true
    (dt < 1.0)

let test_helpers () =
  let q = parse "SELECT a, r.b FROM r JOIN s ON r.id = s.rid WHERE c = 1 \
                 GROUP BY a ORDER BY d" in
  let attrs = List.map Sqlir.Printer.attr_to_string (Ast.attributes q) in
  check_bool "attributes found" true
    (List.for_all (fun x -> List.mem x attrs) [ "a"; "r.b"; "r.id"; "s.rid"; "c"; "d" ]);
  check_bool "flip" true (Ast.cmp_flip Ast.Le = Ast.Ge);
  check_bool "flip eq" true (Ast.cmp_flip Ast.Eq = Ast.Eq)

(* ---- normalizer ---- *)

let test_normalizer () =
  let n s = print (Sqlir.Normalizer.normalize (parse s)) in
  check_str "conjuncts sorted" (n "SELECT * FROM r WHERE b = 2 AND a = 1")
    (n "SELECT * FROM r WHERE a = 1 AND b = 2");
  check_str "nested flattening"
    (n "SELECT * FROM r WHERE (a = 1 AND b = 2) AND c = 3")
    (n "SELECT * FROM r WHERE a = 1 AND (b = 2 AND c = 3)");
  check_str "duplicate conjunct dropped" (n "SELECT * FROM r WHERE a = 1")
    (n "SELECT * FROM r WHERE a = 1 AND a = 1");
  check_str "in-list sorted+deduped"
    (n "SELECT * FROM r WHERE a IN (1, 2, 3)")
    (n "SELECT * FROM r WHERE a IN (3, 1, 2, 1)");
  check_str "singleton in becomes eq" (n "SELECT * FROM r WHERE a = 7")
    (n "SELECT * FROM r WHERE a IN (7)");
  check_str "between reordered"
    (n "SELECT * FROM r WHERE a BETWEEN 1 AND 9")
    (n "SELECT * FROM r WHERE a BETWEEN 9 AND 1");
  check_str "degenerate between" (n "SELECT * FROM r WHERE a = 5")
    (n "SELECT * FROM r WHERE a BETWEEN 5 AND 5");
  check_str "not pushed" (n "SELECT * FROM r WHERE a >= 5")
    (n "SELECT * FROM r WHERE NOT a < 5");
  check_str "double negation" (n "SELECT * FROM r WHERE a = 1")
    (n "SELECT * FROM r WHERE NOT NOT a = 1");
  check_str "not is-null" (n "SELECT * FROM r WHERE a IS NOT NULL")
    (n "SELECT * FROM r WHERE NOT a IS NULL");
  check_str "dup select dropped" (n "SELECT a FROM r") (n "SELECT a, a FROM r");
  check_bool "equivalent" true
    (Sqlir.Normalizer.equivalent
       (parse "SELECT * FROM r WHERE x = 1 AND y = 2")
       (parse "SELECT * FROM r WHERE y = 2 AND x = 1"));
  check_bool "not equivalent" false
    (Sqlir.Normalizer.equivalent
       (parse "SELECT * FROM r WHERE x = 1")
       (parse "SELECT * FROM r WHERE x = 2"))

let normalizer_properties =
  [ QCheck.Test.make ~name:"normalize idempotent" ~count:400 Testkit.arbitrary_query
      (fun q ->
        let n = Sqlir.Normalizer.normalize q in
        Ast.equal_query n (Sqlir.Normalizer.normalize n));
    QCheck.Test.make ~name:"cipher-safe idempotent" ~count:400 Testkit.arbitrary_query
      (fun q ->
        let n = Sqlir.Normalizer.normalize_cipher_safe q in
        Ast.equal_query n (Sqlir.Normalizer.normalize_cipher_safe n));
    QCheck.Test.make ~name:"normalize subsumes cipher-safe" ~count:400
      Testkit.arbitrary_query
      (fun q ->
        Ast.equal_query
          (Sqlir.Normalizer.normalize q)
          (Sqlir.Normalizer.normalize (Sqlir.Normalizer.normalize_cipher_safe q)));
    QCheck.Test.make ~name:"normalized output reparses" ~count:400
      Testkit.arbitrary_query
      (fun q ->
        let n = Sqlir.Normalizer.normalize q in
        match Parser.parse_result (Printer.to_string n) with
        | Ok n' -> Ast.equal_query n n'
        | Error _ -> false) ]

(* ---- properties ---- *)

let properties =
  [ QCheck.Test.make ~name:"print/parse roundtrip" ~count:500 Testkit.arbitrary_query
      (fun q ->
        let s = Printer.to_string q in
        match Parser.parse_result s with
        | Ok q2 -> Ast.equal_query q q2
        | Error e -> QCheck.Test.fail_reportf "did not reparse: %s on %s" e s);
    QCheck.Test.make ~name:"print is stable (idempotent canonical form)" ~count:300
      Testkit.arbitrary_query
      (fun q -> roundtrip (Printer.to_string q) = Printer.to_string q);
    QCheck.Test.make ~name:"tokenize(print) never fails" ~count:300
      Testkit.arbitrary_query
      (fun q -> ignore (Lexer.tokenize (Printer.to_string q)); true);
    QCheck.Test.make ~name:"predicate print respects precedence" ~count:300
      Testkit.arbitrary_pred
      (fun p ->
        let s = "SELECT * FROM r WHERE " ^ Printer.pred_to_string p in
        match Parser.parse_result s with
        | Ok q -> q.Ast.where = Some p
        | Error e -> QCheck.Test.fail_reportf "pred reparse failed: %s on %s" e s) ]

(* [parse_result] is total: any input is [Ok] or [Error], never an
   exception — on raw bytes, and on token soup from the lexer's own
   vocabulary (long digit runs included) *)
let lexeme =
  QCheck.Gen.(
    frequency
      [ (4,
         oneofl
           [ "SELECT"; "DISTINCT"; "FROM"; "WHERE"; "JOIN"; "INNER"; "LEFT"; "OUTER";
             "ON"; "GROUP"; "BY"; "HAVING"; "ORDER"; "ASC"; "DESC"; "LIMIT"; "AND";
             "OR"; "NOT"; "BETWEEN"; "IN"; "LIKE"; "IS"; "NULL"; "AS"; "COUNT";
             "SUM"; "AVG"; "MIN"; "MAX" ]);
        (4, oneofl [ ","; "("; ")"; "."; "*"; "="; "<"; ">"; "<="; ">="; "<>"; "!=";
                     ";"; "-"; "+"; "/" ]);
        (2, oneofl [ "a"; "r"; "t_1"; "price" ]);
        (2, map string_of_int int);
        (1, map (fun n -> String.make n '9') (int_range 1 40));
        (1, map (fun n -> "-" ^ String.make n '1') (int_range 1 40));
        (1, oneofl [ "1.5"; "0.25"; "'x'"; "'it''s'"; "'open" ]) ])

let total = Testkit.never_raises Parser.parse_result

(* the lexer against the one it replaced: the same tokens, or the same
   [Lex_error] message and offset *)
let lexes_as_reference s =
  let outcome f =
    match f s with
    | toks -> Ok toks
    | exception Lexer.Lex_error (msg, off) -> Error (msg, off)
  in
  outcome Lexer.tokenize = outcome Reference.tokenize

(* lexemes in any case and of every length around the longest keyword,
   joined with or without a separator, so that symbols can fuse *)
let mixed_soup =
  QCheck.Gen.(
    let word =
      frequency
        [ (6, lexeme);
          (2, map String.lowercase_ascii lexeme);
          (1, map (fun n -> "x_" ^ String.make n 'a') (int_range 0 48));
          (1, oneofl [ "SeLeCt"; "SELECTED"; "selecting"; "!"; "!="; "'"; "''" ]) ]
    in
    map
      (fun parts -> String.concat "" (List.concat_map (fun (w, sep) -> [ w; sep ]) parts))
      (list_size (int_range 0 40) (pair word (oneofl [ " "; ""; "\n" ]))))

let fuzz_properties =
  [ QCheck.Test.make ~name:"parse_result total on arbitrary bytes" ~count:1000
      QCheck.(string_gen_of_size Gen.(int_range 0 80) Gen.char)
      total;
    QCheck.Test.make ~name:"parse_result total on token soup" ~count:1000
      (QCheck.make
         ~print:Fun.id
         QCheck.Gen.(map (String.concat " ") (list_size (int_range 0 40) lexeme)))
      total;
    QCheck.Test.make ~name:"parse_result total on query-shaped token soup" ~count:1000
      (QCheck.make
         ~print:Fun.id
         QCheck.Gen.(
           map
             (fun ts -> "SELECT a FROM t WHERE " ^ String.concat " " ts)
             (list_size (int_range 0 40) lexeme)))
      total;
    QCheck.Test.make ~name:"tokenize = reference on arbitrary bytes" ~count:2000
      QCheck.(string_gen_of_size Gen.(int_range 0 80) Gen.char)
      lexes_as_reference;
    QCheck.Test.make ~name:"tokenize = reference on query-shaped token soup"
      ~count:2000 (QCheck.make ~print:Fun.id mixed_soup) lexes_as_reference ]

let () =
  Alcotest.run "sqlir"
    [ ("lexer",
       [ Alcotest.test_case "basics" `Quick test_lexer_basics;
         Alcotest.test_case "errors" `Quick test_lexer_errors;
         Alcotest.test_case "integer literal range" `Quick test_int_literal_range ]);
      ("parser",
       [ Alcotest.test_case "select" `Quick test_parse_select;
         Alcotest.test_case "joins" `Quick test_parse_joins;
         Alcotest.test_case "predicates" `Quick test_parse_predicates;
         Alcotest.test_case "group/order/limit" `Quick test_parse_group_order;
         Alcotest.test_case "aliases" `Quick test_aliases;
         Alcotest.test_case "trailing input" `Quick test_parse_trailing;
         Alcotest.test_case "errors" `Quick test_parse_errors;
         Alcotest.test_case "nesting depth bound" `Quick test_parse_depth ]);
      ("printer",
       [ Alcotest.test_case "canonical forms" `Quick test_print_canonical;
         Alcotest.test_case "1 MB flat chain" `Quick test_print_flat_chain;
         Alcotest.test_case "ast helpers" `Quick test_helpers ]);
      ("normalizer",
       Alcotest.test_case "rewrites" `Quick test_normalizer
       :: List.map (fun t -> QCheck_alcotest.to_alcotest t) normalizer_properties);
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest t) properties);
      ("fuzz", List.map (fun t -> QCheck_alcotest.to_alcotest t) fuzz_properties) ]

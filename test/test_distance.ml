module Ast = Sqlir.Ast
module Interval = Distance.Interval
module AA = Distance.Access_area

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let parse = Sqlir.Parser.parse

(* ---- Jaccard ---- *)

let jac = Distance.Jaccard.distance_strings

let test_jaccard () =
  check_float "identical" 0.0 (jac [ "a"; "b" ] [ "b"; "a" ]);
  check_float "disjoint" 1.0 (jac [ "a" ] [ "b" ]);
  check_float "half" 0.5 (jac [ "a"; "b"; "c" ] [ "a"; "b"; "d" ]);
  check_float "both empty" 0.0 (jac [] []);
  check_float "one empty" 1.0 (jac [ "a" ] []);
  check_float "duplicates ignored" 0.0 (jac [ "a"; "a"; "b" ] [ "a"; "b"; "b" ]);
  check_float "similarity" 1.0
    (Distance.Jaccard.similarity ~compare:String.compare [ "x" ] [ "x" ])

let jaccard_properties =
  let arb = QCheck.(pair (list_of_size (Gen.int_range 0 8) (string_of_size (Gen.int_range 0 3)))
                      (list_of_size (Gen.int_range 0 8) (string_of_size (Gen.int_range 0 3)))) in
  [ QCheck.Test.make ~name:"jaccard symmetric" ~count:300 arb (fun (a, b) ->
        jac a b = jac b a);
    QCheck.Test.make ~name:"jaccard bounded" ~count:300 arb (fun (a, b) ->
        let d = jac a b in
        d >= 0.0 && d <= 1.0);
    QCheck.Test.make ~name:"jaccard identity" ~count:300
      QCheck.(list (string_of_size (Gen.int_range 0 3)))
      (fun a -> jac a a = 0.0);
    QCheck.Test.make ~name:"jaccard triangle inequality" ~count:300
      QCheck.(triple (list (string_of_size (Gen.int_range 0 2)))
                (list (string_of_size (Gen.int_range 0 2)))
                (list (string_of_size (Gen.int_range 0 2))))
      (fun (a, b, c) -> jac a c <= jac a b +. jac b c +. 1e-9) ]

(* ---- intervals ---- *)

let test_interval_basics () =
  check_bool "empty" true (Interval.is_empty Interval.empty);
  check_bool "all" true (Interval.is_all Interval.all);
  check_bool "point mem" true (Interval.mem 5.0 (Interval.point 5.0));
  check_bool "closed mem" true (Interval.mem 2.0 (Interval.closed 1.0 3.0));
  check_bool "open excludes endpoint" false
    (Interval.mem 5.0 (Interval.upper ~incl:false 5.0));
  check_bool "closed includes endpoint" true
    (Interval.mem 5.0 (Interval.upper ~incl:true 5.0));
  check_bool "reversed is empty" true
    (Interval.is_empty (Interval.closed 3.0 1.0));
  check_bool "degenerate closed ok" false (Interval.is_empty (Interval.closed 3.0 3.0))

let test_interval_algebra () =
  let a = Interval.closed 1.0 5.0 and b = Interval.closed 3.0 8.0 in
  check_bool "overlap" true (Interval.overlaps a b);
  check_bool "union mem" true (Interval.mem 7.0 (Interval.union a b));
  check_bool "inter left out" false (Interval.mem 2.0 (Interval.inter a b));
  check_bool "inter mem" true (Interval.mem 4.0 (Interval.inter a b));
  (* merge across touching bounds *)
  let u = Interval.union (Interval.closed 1.0 2.0) (Interval.closed 2.0 3.0) in
  check_int "merged" 1 (List.length (Interval.intervals u));
  (* open-open at the same point does NOT merge: 2 is excluded *)
  let v = Interval.union (Interval.of_ival
                            { Interval.lo = Some { v = 1.0; incl = true };
                              hi = Some { v = 2.0; incl = false } })
            (Interval.of_ival
               { Interval.lo = Some { v = 2.0; incl = false };
                 hi = Some { v = 3.0; incl = true } })
  in
  check_int "not merged" 2 (List.length (Interval.intervals v));
  check_bool "2 not member" false (Interval.mem 2.0 v);
  (* complement *)
  let c = Interval.complement (Interval.closed 1.0 2.0) in
  check_bool "complement below" true (Interval.mem 0.0 c);
  check_bool "complement above" true (Interval.mem 3.0 c);
  check_bool "complement boundary" false (Interval.mem 1.0 c);
  check_bool "complement of all" true (Interval.is_empty (Interval.complement Interval.all));
  check_bool "complement of empty" true (Interval.is_all (Interval.complement Interval.empty));
  (* double complement is identity *)
  let w = Interval.union (Interval.closed 1.0 2.0) (Interval.point 9.0) in
  check_bool "involution" true (Interval.equal w (Interval.complement (Interval.complement w)));
  (* the dense-semantics motivating case: (5, inf) vs (-inf, 6) overlap *)
  check_bool "dense overlap" true
    (Interval.overlaps (Interval.upper ~incl:false 5.0) (Interval.lower ~incl:false 6.0));
  check_bool "dense disjoint" false
    (Interval.overlaps (Interval.upper ~incl:false 5.0) (Interval.lower ~incl:false 5.0));
  check_bool "touching closed overlap" true
    (Interval.overlaps (Interval.upper ~incl:true 5.0) (Interval.lower ~incl:true 5.0))

let test_interval_monotone_map () =
  (* strictly increasing endpoint maps preserve every relation we use *)
  let f x = (x *. 3.0) +. 7.0 in
  let a = Interval.union (Interval.closed 1.0 2.0) (Interval.upper ~incl:false 10.0) in
  let b = Interval.lower ~incl:true 1.5 in
  let fa = Interval.map_endpoints f a and fb = Interval.map_endpoints f b in
  check_bool "overlap preserved" (Interval.overlaps a b) (Interval.overlaps fa fb);
  check_bool "equality preserved" (Interval.equal a a)
    (Interval.equal fa (Interval.map_endpoints f a))

let interval_properties =
  let bound = QCheck.Gen.(map2 (fun v incl -> { Interval.v = float_of_int v; incl })
                            (int_range (-20) 20) bool) in
  let gen_set =
    QCheck.Gen.(map
                  (fun ivs ->
                    List.fold_left
                      (fun acc (lo, hi) ->
                        Interval.union acc
                          (Interval.of_ival { Interval.lo = Some lo; hi = Some hi }))
                      Interval.empty ivs)
                  (list_size (int_range 0 4) (pair bound bound)))
  in
  let arb = QCheck.make ~print:Interval.to_string gen_set in
  [ QCheck.Test.make ~name:"complement involution" ~count:300 arb (fun s ->
        Interval.equal s (Interval.complement (Interval.complement s)));
    QCheck.Test.make ~name:"union commutative" ~count:300 (QCheck.pair arb arb)
      (fun (a, b) -> Interval.equal (Interval.union a b) (Interval.union b a));
    QCheck.Test.make ~name:"inter via de morgan consistent" ~count:300
      (QCheck.pair arb arb)
      (fun (a, b) ->
        Interval.equal (Interval.inter a b)
          (Interval.complement
             (Interval.union (Interval.complement a) (Interval.complement b))));
    QCheck.Test.make ~name:"membership decides overlap on samples" ~count:300
      (QCheck.triple arb arb (QCheck.int_range (-25) 25))
      (fun (a, b, x) ->
        let x = float_of_int x in
        (* any common member implies overlap *)
        (not (Interval.mem x a && Interval.mem x b)) || Interval.overlaps a b);
    QCheck.Test.make ~name:"monotone map preserves overlap" ~count:300
      (QCheck.pair arb arb)
      (fun (a, b) ->
        let f x = (x *. 2.0) +. 1.0 in
        Interval.overlaps a b
        = Interval.overlaps (Interval.map_endpoints f a) (Interval.map_endpoints f b)) ]

(* ---- features ---- *)

let test_features () =
  (* the paper's Example 5 *)
  let q = parse "SELECT a1 FROM r WHERE a2 > 5" in
  let feats = Distance.Feature.of_query q in
  check_int "three features" 3 (List.length feats);
  check_bool "select feature" true
    (List.mem (Distance.Feature.Fselect "a1") feats);
  check_bool "from feature" true (List.mem (Distance.Feature.Ffrom "r") feats);
  check_bool "where drops constant" true
    (List.mem (Distance.Feature.Fwhere ("a2", ">")) feats);
  (* constants don't matter *)
  let q2 = parse "SELECT a1 FROM r WHERE a2 > 99999" in
  check_bool "same features" true
    (Distance.Feature.of_query q = Distance.Feature.of_query q2);
  check_float "structure distance zero" 0.0 (Distance.D_structure.distance q q2);
  (* every clause contributes *)
  let q3 =
    parse
      "SELECT DISTINCT x, COUNT(*) FROM r JOIN s ON r.a = s.b WHERE c IN (1,2) \
       GROUP BY x HAVING COUNT(*) > 1 ORDER BY x DESC LIMIT 5"
  in
  let f3 = Distance.Feature.of_query q3 in
  check_bool "distinct" true (List.mem Distance.Feature.Fdistinct f3);
  check_bool "join" true (List.mem (Distance.Feature.Fjoin (Ast.Inner, "s", "r.a", "s.b")) f3);
  check_bool "group" true (List.mem (Distance.Feature.Fgroup_by "x") f3);
  check_bool "limit" true (List.mem Distance.Feature.Flimit f3);
  check_bool "order" true (List.mem (Distance.Feature.Forder_by ("x", Ast.Desc)) f3)

(* ---- token distance ---- *)

let test_token_distance () =
  check_float "identical" 0.0 (Distance.D_token.distance "SELECT a FROM r" "SELECT a FROM r");
  check_float "case-insensitive keywords" 0.0
    (Distance.D_token.distance "select a from r" "SELECT a FROM r");
  check_bool "shared constant counts" true
    (Distance.D_token.distance "SELECT a FROM r WHERE x = 5"
       "SELECT b FROM r WHERE y = 5"
     < Distance.D_token.distance "SELECT a FROM r WHERE x = 5"
         "SELECT b FROM r WHERE y = 6");
  let d = Distance.D_token.distance_q (parse "SELECT a FROM r") (parse "SELECT a FROM r WHERE b = 1") in
  check_bool "subset query closer than disjoint" true (d < 1.0 && d > 0.0)

(* ---- edit distance (extension) ---- *)

let test_edit_distance () =
  check_int "char identical" 0 (Distance.D_edit.char_distance "kitten" "kitten");
  check_int "char classic" 3 (Distance.D_edit.char_distance "kitten" "sitting");
  check_int "char to empty" 6 (Distance.D_edit.char_distance "kitten" "");
  check_int "token identical" 0
    (Distance.D_edit.token_distance "SELECT a FROM r" "select a from r");
  check_int "token one substitution" 1
    (Distance.D_edit.token_distance "SELECT a FROM r" "SELECT b FROM r");
  check_int "token insertion" 2
    (Distance.D_edit.token_distance "SELECT a FROM r" "SELECT a, b FROM r");
  (* fused LIMIT counts as one token *)
  check_int "limit fused" 1
    (Distance.D_edit.token_distance "SELECT a FROM r LIMIT 5" "SELECT a FROM r LIMIT 9");
  check_float "normalized self" 0.0 (Distance.D_edit.distance "SELECT a FROM r" "SELECT a FROM r");
  check_bool "normalized bounded" true
    (let d = Distance.D_edit.distance "SELECT a FROM r" "SELECT x, y FROM s WHERE z = 1" in
     d > 0.0 && d <= 1.0)

let edit_properties =
  let pairs = QCheck.pair Testkit.arbitrary_query Testkit.arbitrary_query in
  [ QCheck.Test.make ~name:"edit symmetric" ~count:200 pairs (fun (a, b) ->
        Distance.D_edit.distance_q a b = Distance.D_edit.distance_q b a);
    QCheck.Test.make ~name:"edit bounded" ~count:200 pairs (fun (a, b) ->
        let d = Distance.D_edit.distance_q a b in
        d >= 0.0 && d <= 1.0);
    QCheck.Test.make ~name:"edit self zero" ~count:100 Testkit.arbitrary_query
      (fun a -> Distance.D_edit.distance_q a a = 0.0);
    QCheck.Test.make ~name:"unnormalized edit triangle inequality" ~count:150
      (QCheck.triple Testkit.arbitrary_query Testkit.arbitrary_query
         Testkit.arbitrary_query)
      (fun (a, b, c) ->
        let d x y =
          Distance.D_edit.token_distance (Sqlir.Printer.to_string x)
            (Sqlir.Printer.to_string y)
        in
        d a c <= d a b + d b c);
    (* the preservation argument: any injective token renaming leaves the
       token edit distance unchanged *)
    QCheck.Test.make ~name:"edit invariant under injective token renaming"
      ~count:150 pairs
      (fun (a, b) ->
        let rename s =
          String.concat " "
            (List.map (fun t -> "T" ^ Crypto.Sha256.hex t)
               (Distance.D_token.fuse (Sqlir.Lexer.tokenize s)))
        in
        let sa = Sqlir.Printer.to_string a and sb = Sqlir.Printer.to_string b in
        Distance.D_edit.token_distance sa sb
        = Distance.D_edit.token_distance (rename sa) (rename sb)) ]

(* ---- clause-based (Aligon) distance ---- *)

let test_clause_distance () =
  let q1 = parse "SELECT a, SUM(x) FROM r WHERE b = 1 GROUP BY a" in
  let q2 = parse "SELECT a, SUM(x) FROM r WHERE b = 99 GROUP BY a" in
  (* constants differ, components identical *)
  check_float "constants invisible" 0.0 (Distance.D_clause.distance q1 q2);
  let q3 = parse "SELECT a, SUM(x) FROM r WHERE b = 1 GROUP BY c" in
  let d13 = Distance.D_clause.distance q1 q3 in
  check_bool "group-by change dominates" true (d13 >= 0.4);
  let q4 = parse "SELECT z FROM s WHERE w > 0 GROUP BY z" in
  check_float "disjoint queries" 1.0 (Distance.D_clause.distance q1 q4);
  (* component extraction *)
  check_bool "projection set" true
    (Distance.D_clause.projection_set q1 = [ "a"; "sum(x)" ]);
  check_bool "selection drops constants" true
    (Distance.D_clause.selection_set q1 = [ "b =" ]);
  check_bool "group set" true (Distance.D_clause.group_by_set q1 = [ "a" ]);
  (* custom weights *)
  let only_proj = { Distance.D_clause.w_projection = 1.0; w_group_by = 0.0; w_selection = 0.0 } in
  check_float "projection-only weighting" 0.0
    (Distance.D_clause.distance ~weights:only_proj q1 q3);
  Alcotest.check_raises "weights validated"
    (Invalid_argument "D_clause: weights sum to zero") (fun () ->
      ignore
        (Distance.D_clause.distance
           ~weights:{ Distance.D_clause.w_projection = 0.0; w_group_by = 0.0;
                      w_selection = 0.0 }
           q1 q2))

(* ---- access areas ---- *)

let area q name = List.assoc name (AA.of_query (parse q))

let test_access_areas () =
  (* range predicate *)
  let a = area "SELECT x FROM r WHERE ra BETWEEN 10 AND 20" "ra" in
  (match a with
   | AA.Num i -> check_bool "between area" true (Interval.mem 15.0 i && not (Interval.mem 25.0 i))
   | _ -> Alcotest.fail "expected Num");
  (* attribute mentioned only in SELECT: whole domain *)
  check_bool "select-only is All" true (AA.equal (area "SELECT x FROM r WHERE y = 1" "x") AA.All);
  (* equality on string *)
  (match area "SELECT x FROM r WHERE c = 'foo'" "c" with
   | AA.Sfinite [ "foo" ] -> ()
   | a -> Alcotest.failf "expected point set, got %s" (AA.to_string a));
  (* Neq is cofinite *)
  (match area "SELECT x FROM r WHERE c <> 'foo'" "c" with
   | AA.Scofinite [ "foo" ] -> ()
   | a -> Alcotest.failf "expected cofinite, got %s" (AA.to_string a));
  (* OR unions, AND intersects *)
  let u = area "SELECT x FROM r WHERE ra < 5 OR ra > 10" "ra" in
  (match u with
   | AA.Num i ->
     check_bool "union" true (Interval.mem 0.0 i && Interval.mem 11.0 i && not (Interval.mem 7.0 i))
   | _ -> Alcotest.fail "expected Num");
  let i = area "SELECT x FROM r WHERE ra > 5 AND ra < 10" "ra" in
  (match i with
   | AA.Num iv -> check_bool "intersection" true (Interval.mem 7.0 iv && not (Interval.mem 5.0 iv))
   | _ -> Alcotest.fail "expected Num");
  (* NOT pushes to atoms; constraint on another attribute stays All *)
  check_bool "not other attr" true
    (AA.equal (area "SELECT x FROM r WHERE NOT (y = 1)" "x") AA.All);
  (* IN list of ints *)
  (match area "SELECT x FROM r WHERE n IN (1, 5, 9)" "n" with
   | AA.Num iv -> check_bool "in points" true (Interval.mem 5.0 iv && not (Interval.mem 2.0 iv))
   | _ -> Alcotest.fail "expected Num");
  (* LIKE is opaque *)
  (match area "SELECT x FROM r WHERE c LIKE 'a%'" "c" with
   | AA.Opaque [ atom ] -> check_bool "atom mentions pattern" true (atom = "like:a%")
   | a -> Alcotest.failf "expected opaque, got %s" (AA.to_string a))

let test_delta () =
  let x = 0.5 in
  check_float "equal" 0.0 (AA.delta ~x AA.All AA.All);
  check_float "overlap" 0.5
    (AA.delta ~x (AA.Num (Interval.closed 1.0 5.0)) (AA.Num (Interval.closed 4.0 9.0)));
  check_float "disjoint" 1.0
    (AA.delta ~x (AA.Num (Interval.closed 1.0 2.0)) (AA.Num (Interval.closed 4.0 9.0)));
  check_float "empty vs all" 1.0 (AA.delta ~x AA.Empty AA.All);
  check_float "cofinite overlap" 0.5
    (AA.delta ~x (AA.Scofinite [ "a" ]) (AA.Scofinite [ "b" ]));
  check_float "finite vs its complement" 1.0
    (AA.delta ~x (AA.Sfinite [ "a" ]) (AA.Scofinite [ "a" ]))

let test_access_distance () =
  (* identical queries: distance 0 *)
  let q = parse "SELECT x FROM r WHERE ra BETWEEN 1 AND 5" in
  check_float "self distance" 0.0 (Distance.D_access.distance q q);
  (* Definition 5 averaging *)
  let q1 = parse "SELECT x FROM r WHERE ra BETWEEN 0 AND 10 AND dec = 3" in
  let q2 = parse "SELECT x FROM r WHERE ra BETWEEN 5 AND 15 AND dec = 4" in
  (* attrs: x (All=All -> 0), ra (overlap -> 0.5), dec (disjoint -> 1) *)
  check_float "averaged" ((0.0 +. 0.5 +. 1.0) /. 3.0) (Distance.D_access.distance q1 q2);
  let per = Distance.D_access.per_attribute q1 q2 in
  check_int "three attrs" 3 (List.length per);
  check_float "custom x" ((0.0 +. 0.25 +. 1.0) /. 3.0)
    (Distance.D_access.distance ~x:0.25 q1 q2);
  Alcotest.check_raises "x bounds" (Invalid_argument "D_access: x must be in (0,1)")
    (fun () -> ignore (Distance.D_access.distance ~x:1.0 q1 q2))

(* ---- result distance ---- *)

let test_result_distance () =
  let schema = Minidb.Schema.make ~rel:"r" [ ("a", Minidb.Value.Tint); ("b", Minidb.Value.Tint) ] in
  let table =
    Minidb.Table.of_rows schema
      (List.init 10 (fun i -> [| Minidb.Value.Vint i; Minidb.Value.Vint (i * 2) |]))
  in
  let db = Minidb.Database.add_table Minidb.Database.empty table in
  let d = Distance.D_result.distance db (parse "SELECT a FROM r WHERE a < 5")
      (parse "SELECT a FROM r WHERE a < 5") in
  check_float "same query" 0.0 d;
  let d2 = Distance.D_result.distance db
      (parse "SELECT a FROM r WHERE a < 5") (parse "SELECT a FROM r WHERE a >= 5") in
  check_float "disjoint results" 1.0 d2;
  let d3 = Distance.D_result.distance db
      (parse "SELECT a FROM r WHERE a < 6") (parse "SELECT a FROM r WHERE a < 5") in
  check_bool "overlap strict" true (d3 > 0.0 && d3 < 1.0);
  (* the distance is about result CONTENT, not query text *)
  let d4 = Distance.D_result.distance db
      (parse "SELECT a FROM r WHERE a <= 4") (parse "SELECT a FROM r WHERE a < 5") in
  check_float "different text same tuples" 0.0 d4

(* ---- measure dispatch ---- *)

let test_measure () =
  check_bool "of_string" true (Distance.Measure.of_string "token" = Some Distance.Measure.Token);
  check_bool "of_string access alias" true
    (Distance.Measure.of_string "access" = Some Distance.Measure.Access);
  check_bool "unknown" true (Distance.Measure.of_string "bogus" = None);
  check_int "all measures" 4 (List.length Distance.Measure.all);
  check_bool "result needs db" true (Distance.Measure.needs_db_content Distance.Measure.Result);
  check_bool "access needs domains" true (Distance.Measure.needs_domains Distance.Measure.Access);
  (try
     ignore
       (Distance.Measure.compute Distance.Measure.default_ctx Distance.Measure.Result
          (parse "SELECT a FROM r") (parse "SELECT a FROM r"));
     Alcotest.fail "expected typed invariant error"
   with Fault.Error.E (Fault.Error.Invariant _) -> ());
  (match
     Distance.Measure.matrix_r Distance.Measure.default_ctx Distance.Measure.Result
       [ parse "SELECT a FROM r" ]
   with
   | Ok _ -> Alcotest.fail "matrix_r without db must error"
   | Error [ Fault.Error.Invariant _ ] -> ()
   | Error _ -> Alcotest.fail "matrix_r without db: wrong error shape")

(* metric-ish properties of measures over generated queries *)
let measure_properties =
  let ctx = Distance.Measure.default_ctx in
  let pairs = QCheck.pair Testkit.arbitrary_query Testkit.arbitrary_query in
  List.concat_map
    (fun m ->
      let name = Distance.Measure.to_string m in
      [ QCheck.Test.make ~name:(name ^ " symmetric") ~count:200 pairs
          (fun (a, b) ->
            Distance.Measure.compute ctx m a b = Distance.Measure.compute ctx m b a);
        QCheck.Test.make ~name:(name ^ " bounded in [0,1]") ~count:200 pairs
          (fun (a, b) ->
            let d = Distance.Measure.compute ctx m a b in
            d >= 0.0 && d <= 1.0);
        QCheck.Test.make ~name:(name ^ " self distance 0") ~count:200
          Testkit.arbitrary_query
          (fun a -> Distance.Measure.compute ctx m a a = 0.0) ])
    [ Distance.Measure.Token; Distance.Measure.Structure;
      Distance.Measure.Access; Distance.Measure.Edit;
      Distance.Measure.Clause ]

(* ---- PR-5: the bit-parallel edit kernel vs the classic DP ---- *)

module DE = Distance.D_edit

let classic = DE.levenshtein Int.equal

let kernel_properties =
  (* lengths up to 150 cross the 62-symbol block boundary, so the
     multi-block carry chain is exercised, not just the 1-block fast
     path *)
  let arr = QCheck.(array_of_size (QCheck.Gen.int_range 0 150) (int_range 0 40)) in
  let myers ~peq a b =
    DE.myers_with_peq ~alphabet:41 ~m:(Array.length a) ~peq b
  in
  [ QCheck.Test.make ~name:"myers = classic DP (incl. >1 block)" ~count:400
      (QCheck.pair arr arr)
      (fun (a, b) -> myers ~peq:(DE.myers_peq ~alphabet:41 a) a b = classic a b);
    (* one pattern's bitvectors reused across a row of texts, as the
       feature table reuses them across a matrix row *)
    QCheck.Test.make ~name:"myers via precomputed peq = classic DP" ~count:400
      (QCheck.triple arr arr arr)
      (fun (a, b, c) ->
        let peq = DE.myers_peq ~alphabet:41 a in
        List.for_all (fun t -> myers ~peq a t = classic a t) [ b; c; a ]) ]

(* ---- PR-5: the feature-precomputed matrix path is bit-identical to the
   seed's per-pair evaluation, for every measure and pool size ---- *)

let feature_queries =
  List.map parse
    [ "SELECT a FROM r WHERE a < 5";
      "SELECT a FROM r WHERE a < 5 AND b = 2";
      "SELECT a, b FROM r WHERE b BETWEEN 1 AND 9 ORDER BY a LIMIT 20";
      "SELECT COUNT(*) FROM r GROUP BY b HAVING COUNT(*) > 2";
      "SELECT r.a, s.c FROM r JOIN s ON r.a = s.a WHERE s.c IN (1, 2, 3)";
      "SELECT DISTINCT b FROM r WHERE a >= 10 OR b < 0";
      "SELECT a FROM r WHERE a LIKE 'x%' AND b IS NOT NULL";
      "SELECT MAX(a) FROM r WHERE b <> 4" ]

let with_pool domains f =
  let p = Parallel.Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown p) (fun () -> f p)

let max_abs_diff a b =
  let d = ref 0.0 in
  Array.iteri
    (fun i row ->
      Array.iteri (fun j v -> d := Float.max !d (Float.abs (v -. b.(i).(j)))) row)
    a;
  !d

let test_features_matrix_identity () =
  let ctx = Distance.Measure.default_ctx in
  let qs = Array.of_list feature_queries in
  let n = Array.length qs in
  List.iter
    (fun m ->
      let name = Distance.Measure.to_string m in
      let seed =
        Array.init n (fun i ->
            Array.init n (fun j -> Distance.Measure.compute ctx m qs.(i) qs.(j)))
      in
      List.iter
        (fun domains ->
          with_pool domains (fun pool ->
              let fast = Distance.Measure.matrix ~pool ctx m feature_queries in
              check_bool
                (Printf.sprintf "%s matrix bit-identical (domains=%d)" name
                   domains)
                true
                (max_abs_diff seed fast = 0.0)))
        [ 1; 3 ])
    [ Distance.Measure.Token; Distance.Measure.Structure;
      Distance.Measure.Edit; Distance.Measure.Clause;
      Distance.Measure.Access ]

let test_features_evaluators () =
  let ctx = Distance.Measure.default_ctx in
  let qs = Array.of_list feature_queries in
  let t = Distance.Features.build qs in
  let n = Distance.Features.length t in
  Alcotest.(check int) "table length" (Array.length qs) n;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let pair name fast seedf =
        check_bool (Printf.sprintf "%s (%d,%d)" name i j) true (fast = seedf)
      in
      pair "token" (Distance.Features.token t i j)
        (Distance.Measure.compute ctx Distance.Measure.Token qs.(i) qs.(j));
      pair "edit" (Distance.Features.edit t i j)
        (Distance.Measure.compute ctx Distance.Measure.Edit qs.(i) qs.(j))
    done
  done

let test_features_metrics () =
  Obs.set_enabled true;
  let builds = Obs.Registry.counter "kitdpe.distance.features.builds" in
  let reuse = Obs.Registry.counter "kitdpe.distance.features.reuse" in
  let b0 = Obs.Metric.value builds and r0 = Obs.Metric.value reuse in
  let n = List.length feature_queries in
  let _m =
    Distance.Measure.matrix Distance.Measure.default_ctx Distance.Measure.Token
      feature_queries
  in
  Alcotest.(check int) "O(n) feature builds" n (Obs.Metric.value builds - b0);
  Alcotest.(check int) "n^2 - n pair evals reuse the table"
    ((n * n) - n)
    (Obs.Metric.value reuse - r0)

let test_features_fault () =
  Fault.Inject.disarm_all ();
  (match Fault.Inject.arm_spec "distance.features.build=nth:2" with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Fault.Inject.disarm_all (fun () ->
      (match Distance.Features.build_r (Array.of_list feature_queries) with
       | Ok _ -> Alcotest.fail "build_r must surface the injected fault"
       | Error [ Fault.Error.Task_failed { label = "features.build"; index = 2; _ } ] -> ()
       | Error _ -> Alcotest.fail "build_r: wrong error shape");
      match
        Distance.Measure.matrix_r Distance.Measure.default_ctx
          Distance.Measure.Token feature_queries
      with
      | Ok _ -> Alcotest.fail "matrix_r must surface the injected fault"
      | Error errs ->
        check_bool "matrix_r error tagged features.build" true
          (List.exists
             (function
               | Fault.Error.Task_failed { label = "features.build"; _ } -> true
               | _ -> false)
             errs));
  (* disarmed: clean build again *)
  match Distance.Features.build_r (Array.of_list feature_queries) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "clean build after disarm"

let () =
  Alcotest.run "distance"
    [ ("jaccard",
       Alcotest.test_case "unit" `Quick test_jaccard
       :: List.map (fun t -> QCheck_alcotest.to_alcotest t) jaccard_properties);
      ("interval",
       [ Alcotest.test_case "basics" `Quick test_interval_basics;
         Alcotest.test_case "algebra" `Quick test_interval_algebra;
         Alcotest.test_case "monotone map" `Quick test_interval_monotone_map ]
       @ List.map (fun t -> QCheck_alcotest.to_alcotest t) interval_properties);
      ("features", [ Alcotest.test_case "extraction" `Quick test_features ]);
      ("token", [ Alcotest.test_case "token distance" `Quick test_token_distance ]);
      ("edit",
       Alcotest.test_case "edit distance" `Quick test_edit_distance
       :: List.map (fun t -> QCheck_alcotest.to_alcotest t) edit_properties);
      ("clause", [ Alcotest.test_case "aligon distance" `Quick test_clause_distance ]);
      ("access",
       [ Alcotest.test_case "areas" `Quick test_access_areas;
         Alcotest.test_case "delta" `Quick test_delta;
         Alcotest.test_case "distance" `Quick test_access_distance ]);
      ("result", [ Alcotest.test_case "result distance" `Quick test_result_distance ]);
      ("measure",
       Alcotest.test_case "dispatch" `Quick test_measure
       :: List.map (fun t -> QCheck_alcotest.to_alcotest t) measure_properties);
      ("edit kernels",
       List.map (fun t -> QCheck_alcotest.to_alcotest t) kernel_properties);
      ("feature table",
       [ Alcotest.test_case "matrix bit-identical to seed" `Quick
           test_features_matrix_identity;
         Alcotest.test_case "pair evaluators" `Quick test_features_evaluators;
         Alcotest.test_case "builds/reuse metrics" `Quick test_features_metrics;
         Alcotest.test_case "fault point surfaces" `Quick test_features_fault ]) ]

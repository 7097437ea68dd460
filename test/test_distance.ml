module Ast = Sqlir.Ast
module Interval = Distance.Interval
module AA = Distance.Access_area
module M = Distance.Measure

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let parse = Sqlir.Parser.parse

(* ---- Jaccard ---- *)

let jac = Distance.Jaccard.distance ~compare:String.compare

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
  check_float "structure distance zero" 0.0 (M.compute M.default_ctx M.Structure q q2);
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
  let token a b = M.compute M.default_ctx M.Token (parse a) (parse b) in
  check_float "identical" 0.0 (token "SELECT a FROM r" "SELECT a FROM r");
  check_float "case-insensitive keywords" 0.0
    (Reference.token_of_text "select a from r" "SELECT a FROM r");
  check_bool "shared constant counts" true
    (token "SELECT a FROM r WHERE x = 5" "SELECT b FROM r WHERE y = 5"
     < token "SELECT a FROM r WHERE x = 5" "SELECT b FROM r WHERE y = 6");
  let d = token "SELECT a FROM r" "SELECT a FROM r WHERE b = 1" in
  check_bool "subset query closer than disjoint" true (d < 1.0 && d > 0.0)

(* ---- edit distance (extension) ---- *)

let test_edit_distance () =
  check_int "char identical" 0 (Reference.char_levenshtein "kitten" "kitten");
  check_int "char classic" 3 (Reference.char_levenshtein "kitten" "sitting");
  check_int "char to empty" 6 (Reference.char_levenshtein "kitten" "");
  check_int "token identical" 0
    (Reference.token_edits "SELECT a FROM r" "select a from r");
  check_int "token one substitution" 1
    (Reference.token_edits "SELECT a FROM r" "SELECT b FROM r");
  check_int "token insertion" 2
    (Reference.token_edits "SELECT a FROM r" "SELECT a, b FROM r");
  (* fused LIMIT counts as one token *)
  check_int "limit fused" 1
    (Reference.token_edits "SELECT a FROM r LIMIT 5" "SELECT a FROM r LIMIT 9");
  let edit a b = M.compute M.default_ctx M.Edit (parse a) (parse b) in
  check_float "normalized self" 0.0 (edit "SELECT a FROM r" "SELECT a FROM r");
  check_bool "normalized bounded" true
    (let d = edit "SELECT a FROM r" "SELECT x, y FROM s WHERE z = 1" in
     d > 0.0 && d <= 1.0)

(* the [key] part of every query of [qs] *)
let table key qs =
  Fault.Error.get_ok
    (Distance.Features.table_r key (Distance.Features.build (Array.of_list qs)))

(* the integer token edit distance the BK-tree routes on, between
   queries [i] and [j] of one table of [qs] *)
let edit_ints qs =
  let t = table Distance.Features.Edit_tokens qs in
  (Distance.Features.edit_distance_int t, Distance.Features.len t)

(* an injective renaming of every relation and attribute name *)
let rename_names =
  let r s = if s = "*" then s else "t" ^ Crypto.Sha256.hex s in
  Sqlir.Ast.map_query ~rel:r
    ~attr:(fun (a : Sqlir.Ast.attr) -> { Sqlir.Ast.rel = Option.map r a.rel; name = r a.name })
    ~const:(fun _ c -> c)

let edit_properties =
  let pairs = QCheck.pair Testkit.arbitrary_query Testkit.arbitrary_query in
  [ QCheck.Test.make ~name:"edit symmetric" ~count:200 pairs (fun (a, b) ->
        let d, _ = edit_ints [ a; b ] in
        d 0 1 = d 1 0);
    QCheck.Test.make ~name:"edit bounded" ~count:200 pairs (fun (a, b) ->
        let d, len = edit_ints [ a; b ] in
        d 0 1 >= 0 && d 0 1 <= max (len 0) (len 1));
    QCheck.Test.make ~name:"edit self zero" ~count:100 Testkit.arbitrary_query
      (fun a ->
        let d, _ = edit_ints [ a ] in
        d 0 0 = 0);
    QCheck.Test.make ~name:"unnormalized edit triangle inequality" ~count:150
      (QCheck.triple Testkit.arbitrary_query Testkit.arbitrary_query
         Testkit.arbitrary_query)
      (fun (a, b, c) ->
        let d, _ = edit_ints [ a; b; c ] in
        d 0 2 <= d 0 1 + d 1 2);
    (* the preservation argument: an injective renaming of the names
       leaves the token edit distance unchanged *)
    QCheck.Test.make ~name:"edit invariant under injective token renaming"
      ~count:150 pairs
      (fun (a, b) ->
        let d, _ = edit_ints [ a; b ]
        and d', _ = edit_ints [ rename_names a; rename_names b ] in
        d 0 1 = d' 0 1) ]

(* ---- clause-based (Aligon) distance ---- *)

let test_clause_distance () =
  let q1 = parse "SELECT a, SUM(x) FROM r WHERE b = 1 GROUP BY a" in
  let q2 = parse "SELECT a, SUM(x) FROM r WHERE b = 99 GROUP BY a" in
  (* constants differ, components identical *)
  let clause = M.compute M.default_ctx M.Clause in
  check_float "constants invisible" 0.0 (clause q1 q2);
  let q3 = parse "SELECT a, SUM(x) FROM r WHERE b = 1 GROUP BY c" in
  let d13 = clause q1 q3 in
  check_bool "group-by change dominates" true (d13 >= 0.4);
  let q4 = parse "SELECT z FROM s WHERE w > 0 GROUP BY z" in
  check_float "disjoint queries" 1.0 (clause q1 q4);
  (* component extraction *)
  check_bool "projection set" true
    (Distance.D_clause.projection_set q1 = [ "a"; "sum(x)" ]);
  check_bool "selection drops constants" true
    (Distance.D_clause.selection_set q1 = [ "b =" ]);
  check_bool "group set" true (Distance.D_clause.group_by_set q1 = [ "a" ])

(* The float order of the clause combination: projection plus group-by,
   then selection, over the weight sum.  Swapping the two operands of one
   addition gives the same bits, so each of the 12 ways to add the three
   weighted terms matches the literal exactly when it adds projection and
   group-by first; on these component distances every other way gives
   other bits.  The query pair has those components, so the measure is
   pinned through the feature table too. *)
let test_clause_float_order () =
  let bits = Int64.bits_of_float in
  let projection = 1.0 -. (2.0 /. 3.0)
  and group_by = 1.0 -. (2.0 /. 3.0)
  and selection = 1.0 -. (1.0 /. 3.0) in
  let literal =
    ((0.35 *. projection) +. (0.50 *. group_by) +. (0.15 *. selection))
    /. (0.35 +. 0.50 +. 0.15)
  in
  let terms =
    [ ("p", 0.35 *. projection); ("g", 0.50 *. group_by); ("s", 0.15 *. selection) ]
  in
  let matches sum = bits (sum /. (0.35 +. 0.50 +. 0.15)) = bits literal in
  List.iter
    (fun (n1, t1) ->
      List.iter
        (fun (n2, t2) ->
          List.iter
            (fun (n3, t3) ->
              if n1 <> n2 && n2 <> n3 && n1 <> n3 then begin
                check_bool
                  (Printf.sprintf "(%s + %s) + %s matches" n1 n2 n3)
                  (n3 = "s") (matches ((t1 +. t2) +. t3));
                check_bool
                  (Printf.sprintf "%s + (%s + %s) matches" n1 n2 n3)
                  (n1 = "s") (matches (t1 +. (t2 +. t3)))
              end)
            terms)
        terms)
    terms;
  check_bool "combine" true
    (bits (Distance.D_clause.combine ~projection ~group_by ~selection) = bits literal);
  let q1 = parse "SELECT a, b FROM r WHERE x = 1 AND y = 2 GROUP BY a, b" in
  let q2 = parse "SELECT a, b, c FROM r WHERE x = 1 AND z = 2 GROUP BY a, b, c" in
  check_bool "Measure.compute" true
    (bits (M.compute M.default_ctx M.Clause q1 q2) = bits literal)

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
  let access ?(x = Distance.D_access.default_x) =
    M.compute { M.default_ctx with x } M.Access
  in
  let q = parse "SELECT x FROM r WHERE ra BETWEEN 1 AND 5" in
  check_float "self distance" 0.0 (access q q);
  (* Definition 5 averaging *)
  let q1 = parse "SELECT x FROM r WHERE ra BETWEEN 0 AND 10 AND dec = 3" in
  let q2 = parse "SELECT x FROM r WHERE ra BETWEEN 5 AND 15 AND dec = 4" in
  (* attrs: x (All=All -> 0), ra (overlap -> 0.5), dec (disjoint -> 1) *)
  check_float "averaged" ((0.0 +. 0.5 +. 1.0) /. 3.0) (access q1 q2);
  let per = Reference.access_per_attribute q1 q2 in
  check_int "three attrs" 3 (List.length per);
  check_float "custom x" ((0.0 +. 0.25 +. 1.0) /. 3.0) (access ~x:0.25 q1 q2);
  Alcotest.check_raises "x bounds" (Invalid_argument "D_access: x must be in (0,1)")
    (fun () -> ignore (access ~x:1.0 q1 q2))

(* ---- access areas against their first formulas ---- *)

(* The relations as first written: normalize, then compare sorted
   copies, intersect through string sets, and decide interval overlap
   by building the intersection.  [AA.equal], [AA.overlaps] and
   [Interval.overlaps] must agree with these on every input. *)
module Old_area = struct
  module SS = Set.Make (String)

  let normalize = function
    | AA.Num i when Interval.is_empty i -> AA.Empty
    | AA.Num i when Interval.is_all i -> AA.All
    | AA.Sfinite [] -> AA.Empty
    | AA.Scofinite [] -> AA.All
    | AA.Opaque [] -> AA.Empty
    | a -> a

  let sorted xs = List.sort_uniq String.compare xs
  let set_inter a b = SS.elements (SS.inter (SS.of_list a) (SS.of_list b))
  let set_diff a b = SS.elements (SS.diff (SS.of_list a) (SS.of_list b))
  let interval_overlaps a b = not (Interval.is_empty (Interval.inter a b))

  let equal a b =
    match normalize a, normalize b with
    | AA.Empty, AA.Empty | AA.All, AA.All -> true
    | AA.Num x, AA.Num y -> Interval.equal x y
    | AA.Sfinite x, AA.Sfinite y | AA.Scofinite x, AA.Scofinite y
    | AA.Opaque x, AA.Opaque y ->
      sorted x = sorted y
    | _ -> false

  let overlaps a b =
    match normalize a, normalize b with
    | AA.Empty, _ | _, AA.Empty -> false
    | AA.All, _ | _, AA.All -> true
    | AA.Num x, AA.Num y -> interval_overlaps x y
    | AA.Sfinite x, AA.Sfinite y -> set_inter x y <> []
    | AA.Sfinite x, AA.Scofinite y | AA.Scofinite y, AA.Sfinite x -> set_diff x y <> []
    | AA.Scofinite _, AA.Scofinite _ -> true
    | AA.Opaque x, AA.Opaque y -> set_inter x y <> []
    | _ -> false
end

(* endpoints at the values where float comparison is irregular *)
let gen_endpoint =
  QCheck.Gen.(
    oneof
      [ oneofl [ 0.0; -0.0; infinity; neg_infinity; nan; 1.0; -1.0; 2.5 ];
        map float_of_int (int_range (-4) 4) ])

let gen_interval =
  let open QCheck.Gen in
  let bound = opt (map2 (fun v incl -> { Interval.v; incl }) gen_endpoint bool) in
  let ival = map2 (fun lo hi -> Interval.of_ival { Interval.lo; hi }) bound bound in
  oneof
    [ map (List.fold_left Interval.union Interval.empty) (list_size (int_range 0 3) ival);
      map2 (fun incl v -> Interval.lower ~incl v) bool gen_endpoint;
      map2 (fun incl v -> Interval.upper ~incl v) bool gen_endpoint;
      map Interval.complement
        (map (List.fold_left Interval.union Interval.empty) (list_size (int_range 0 2) ival)) ]

(* unsorted, with repeats, and empty *)
let gen_strings = QCheck.Gen.(list_size (int_range 0 4) (oneofl [ "a"; "b"; "c"; "d" ]))

let gen_area =
  QCheck.Gen.(
    oneof
      [ return AA.Empty; return AA.All;
        map (fun i -> AA.Num i) gen_interval;
        map (fun l -> AA.Sfinite l) gen_strings;
        map (fun l -> AA.Scofinite l) gen_strings;
        map (fun l -> AA.Opaque l) gen_strings ])

(* one query's areas as [AA.of_query] lists them: distinct attributes,
   ascending, possibly none *)
let gen_area_list =
  QCheck.Gen.(
    map
      (List.filter_map (fun (name, area) -> Option.map (fun a -> (name, a)) area))
      (flatten_l
         (List.map
            (fun name -> map (fun a -> (name, a)) (opt ~ratio:0.6 gen_area))
            [ "p"; "q"; "r"; "s" ])))

let print_areas l =
  "[" ^ String.concat "; " (List.map (fun (k, a) -> k ^ " " ^ AA.to_string a) l) ^ "]"

(* x in (0, 1), its ends included as nearly as floats allow *)
let gen_x =
  QCheck.Gen.(
    oneof
      [ oneofl [ 0.5; 0.25; 0.9; Float.succ 0.0; Float.pred 1.0 ];
        map (fun u -> Float.max (Float.succ 0.0) u) (float_bound_exclusive 1.0) ])

let bits = Int64.bits_of_float

let access_properties =
  let area = QCheck.make ~print:AA.to_string gen_area in
  let interval = QCheck.make ~print:Interval.to_string gen_interval in
  let log =
    QCheck.make
      ~print:QCheck.Print.(pair float (array print_areas))
      QCheck.Gen.(pair gen_x (array_size (int_range 1 6) gen_area_list))
  in
  [ QCheck.Test.make ~name:"equal and overlaps = first formulas" ~count:2000
      (QCheck.pair area area)
      (fun (a, b) -> AA.equal a b = Old_area.equal a b && AA.overlaps a b = Old_area.overlaps a b);
    QCheck.Test.make ~name:"interval overlap = built intersection" ~count:2000
      (QCheck.pair interval interval)
      (fun (a, b) -> Interval.overlaps a b = Old_area.interval_overlaps a b);
    (* every pair of a table of generated area lists, both orders and
       each list with itself, and the class map of the lists *)
    QCheck.Test.make ~name:"table = per-pair reference, bit for bit" ~count:500 log
      (fun (x, areas) ->
        let t = Distance.Features.of_areas areas in
        let n = Array.length areas in
        let ok = ref true in
        for i = 0 to n - 1 do
          let row = Distance.Features.eval ~x t i in
          for j = 0 to n - 1 do
            if bits (row j) <> bits (Reference.access_of_areas ~x areas.(i) areas.(j)) then
              ok := false
          done
        done;
        let c = Distance.Features.classes t in
        let first i =
          let rec go j = if compare areas.(j) areas.(i) = 0 then j else go (j + 1) in
          go 0
        in
        !ok
        && Array.for_all Fun.id
             (Array.init n (fun i -> c.class_of.(i) = c.class_of.(first i)
                                     && (first i = i) = (c.reps.(c.class_of.(i)) = i)))) ]

(* 1,024 queries, each with its own range on each of four attributes:
   as many distinct areas per attribute as queries *)
let test_access_worst_case () =
  let n = 1024 in
  let log =
    List.init n (fun i ->
        parse
          (Printf.sprintf
             "SELECT a, b, c, d FROM r WHERE a BETWEEN %d AND %d AND b > %d AND c < %d \
              AND d BETWEEN %d AND %d"
             i (i + 7) (3 * i) (n - i) (-i) (i / 2)))
  in
  let t = table Distance.Features.Areas log in
  check_int "every query its own class" n
    (Array.length (Distance.Features.classes t).Distance.Features.reps);
  let m = M.matrix M.default_ctx M.Access log in
  let qs = Array.of_list log in
  let check i j =
    if bits (Mining.Dist_matrix.get m i j) <> bits (Reference.access qs.(i) qs.(j)) then
      Alcotest.failf "cell (%d, %d) differs from the reference" i j
  in
  List.iter (fun i -> for j = 0 to n - 1 do check i j done) [ 0; 1; 511; 1023 ];
  let drbg = Crypto.Drbg.create ~seed:"kitdpe.test.access.worst" in
  for _ = 1 to 500 do
    check (Crypto.Drbg.uniform_int drbg n) (Crypto.Drbg.uniform_int drbg n)
  done

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

let classic = Reference.levenshtein Int.equal

(* the lengths at which [myers] changes path or block count: empty, one
   word (1-62), two blocks (63-124), three (125) *)
let boundary_lengths = [ 0; 1; 61; 62; 63; 124; 125 ]

let kernel_properties =
  (* lengths up to 150 cross the 62-symbol block boundary, so the
     multi-block carry chain is exercised, not just the one-word path;
     half the draws take a boundary length, which a uniform draw
     rarely lands on *)
  let size = QCheck.Gen.(oneof [ oneofl boundary_lengths; int_range 0 150 ]) in
  let arr = QCheck.(array_of_size size (int_range 0 40)) in
  [ QCheck.Test.make ~name:"myers = classic DP (incl. >1 block)" ~count:400
      (QCheck.pair arr arr)
      (fun (a, b) -> DE.myers ~alphabet:41 a b = classic a b);
    (* one pattern's bitvectors reused across a row of texts, as the
       feature table reuses them across a matrix row *)
    QCheck.Test.make ~name:"myers via precomputed peq = classic DP" ~count:400
      (QCheck.triple arr arr arr)
      (fun (a, b, c) ->
        let myers_a = DE.myers ~alphabet:41 a in
        List.for_all (fun t -> myers_a t = classic a t) [ b; c; a ]) ]

(* every pair of boundary lengths, over a small and a one-symbol
   alphabet (where every cell matches) *)
let test_myers_boundaries () =
  let drbg = Crypto.Drbg.create ~seed:"kitdpe.test.myers.boundaries" in
  List.iter
    (fun alphabet ->
      List.iter
        (fun m ->
          List.iter
            (fun n ->
              let a = Array.init m (fun _ -> Crypto.Drbg.uniform_int drbg alphabet)
              and b = Array.init n (fun _ -> Crypto.Drbg.uniform_int drbg alphabet) in
              check_int
                (Printf.sprintf "m=%d n=%d alphabet=%d" m n alphabet)
                (classic a b) (DE.myers ~alphabet a b))
            boundary_lengths)
        boundary_lengths)
    [ 1; 5 ]

(* ---- the feature table against the per-pair definitions of
   [Reference], for every measure and pool size ---- *)

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

(* the hand-written queries, and a generated log in plaintext and
   encrypted under the measure's scheme *)
let reference_logs m =
  let log =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 40; templates = 4; seed = "ref/" ^ M.to_string m;
        caps = Workload.Gen_query.caps_for_measure m }
  in
  let scheme = Dpe.Selector.select m (Dpe.Log_profile.of_log log) in
  let enc = Dpe.Encryptor.create (Crypto.Keyring.create ~master:"reference") scheme in
  [ ("hand-written", feature_queries); ("plaintext", log);
    ("ciphertext", Dpe.Encryptor.encrypt_log enc log) ]

let test_features_matrix_identity () =
  let ctx = M.default_ctx in
  List.iter
    (fun m ->
      List.iter
        (fun (kind, log) ->
          let name = M.to_string m ^ ", " ^ kind in
          let qs = Array.of_list log in
          let n = Array.length qs in
          let reference = Reference.matrix ctx m log in
          (* every (i, j), both orders: the packed matrix is symmetric by
             construction, so this also checks that each measure is *)
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              if M.compute ctx m qs.(i) qs.(j) <> Reference.compute ctx m qs.(i) qs.(j)
              then Alcotest.failf "%s: compute (%d,%d) differs from the reference" name i j
            done
          done;
          List.iter
            (fun domains ->
              with_pool domains (fun pool ->
                  Alcotest.(check (float 0.0))
                    (Printf.sprintf "%s: matrix = reference (domains=%d)" name domains)
                    0.0
                    (Mining.Dist_matrix.max_abs_diff reference (M.matrix ~pool ctx m log))))
            [ 1; 3 ])
        (reference_logs m))
    [ M.Token; M.Structure; M.Edit; M.Clause; M.Access ]

(* every measure with a feature-table form, and its per-pair
   definition *)
let references =
  [ (M.Token, Reference.token); (M.Edit, Reference.edit);
    (M.Structure, Reference.structure); (M.Clause, Reference.clause);
    (M.Access, Reference.access ?x:None) ]

let test_features_evaluators () =
  let qs = Array.of_list feature_queries in
  let n = Array.length qs in
  let ctx = M.default_ctx in
  List.iter
    (fun (m, reference) ->
      let key = Option.get (M.key_of m) in
      let t = table key feature_queries in
      Alcotest.(check int) "table length" n (Distance.Features.length t);
      let eval = Distance.Features.eval ~x:ctx.M.x t in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          check_bool
            (Printf.sprintf "%s (%d,%d)" (M.to_string m) i j)
            true
            (eval i j = reference qs.(i) qs.(j))
        done
      done)
    references

(* A table holds one key's part, so every reader of another part
   raises [Invariant]: the measure evaluators of the other keys, [set]
   on the edit and access tables, [len] and [edit_distance_int] on all
   but the edit table. *)
let test_features_wrong_key () =
  let module F = Distance.Features in
  let invariant what f =
    check_bool what true
      (match f () with
       | _ -> false
       | exception Fault.Error.E (Fault.Error.Invariant _) -> true)
  in
  let feature_measures = List.map fst references in
  List.iter
    (fun m ->
      let key = Option.get (M.key_of m) in
      let t = table key feature_queries in
      let name = M.to_string m in
      List.iter
        (fun other ->
          let read () = M.pair_of_features M.default_ctx other t 0 1 in
          if M.key_of other = Some key then ignore (read ())
          else
            invariant
              (Printf.sprintf "%s evaluator on a %s table" (M.to_string other) name)
              read)
        (M.Result :: feature_measures);
      let set () = F.set t 0 and len () = F.len t 0 in
      let int_dist () = F.edit_distance_int t 0 1 in
      (match key with
       | F.Edit_tokens ->
         invariant "set on an edit table" set;
         ignore (len (), int_dist ())
       | F.Areas ->
         invariant "set on an access table" set;
         invariant "len on an access table" len;
         invariant "edit_distance_int on an access table" int_dist
       | F.Token_set | F.Structure_set | F.Clause_sets ->
         ignore (set ());
         invariant ("len on a " ^ name ^ " table") len;
         invariant ("edit_distance_int on a " ^ name ^ " table") int_dist))
    feature_measures

(* [compute] builds its two records in the calling thread: no pool
   task and no injection point, so an armed build point does not touch
   it *)
let test_compute_in_caller () =
  Obs.set_enabled true;
  let builds = Obs.Registry.counter "kitdpe.distance.features.builds" in
  let tasks = Obs.Registry.counter "kitdpe.parallel.pool.tasks" in
  let a = List.nth feature_queries 0 and b = List.nth feature_queries 1 in
  Fault.Inject.disarm_all ();
  Fault.Inject.arm "distance.features.build" Fault.Inject.Always;
  Fun.protect ~finally:Fault.Inject.disarm_all (fun () ->
      List.iter
        (fun (m, reference) ->
          let b0 = Obs.Metric.value builds and t0 = Obs.Metric.value tasks in
          let d = M.compute M.default_ctx m a b in
          let name = M.to_string m in
          Alcotest.(check (float 0.0)) (name ^ " = reference") (reference a b) d;
          Alcotest.(check int) (name ^ ": 2 record builds") 2
            (Obs.Metric.value builds - b0);
          Alcotest.(check int) (name ^ ": no pool task") 0
            (Obs.Metric.value tasks - t0))
        references)

let test_features_metrics () =
  Obs.set_enabled true;
  let builds = Obs.Registry.counter "kitdpe.distance.features.builds" in
  let reuse = Obs.Registry.counter "kitdpe.distance.features.reuse" in
  let b0 = Obs.Metric.value builds and r0 = Obs.Metric.value reuse in
  (* every query twice and the first three times: 17 queries, 8 distinct
     ones in 8 token classes, each of two or more members *)
  let log = feature_queries @ feature_queries @ [ List.hd feature_queries ] in
  let d = List.length feature_queries in
  let _m =
    Distance.Measure.matrix Distance.Measure.default_ctx Distance.Measure.Token
      log
  in
  Alcotest.(check int) "one feature build per distinct query" d
    (Obs.Metric.value builds - b0);
  Alcotest.(check int) "2 reuses per eval: d(d-1)/2 pairs, d self-distances"
    (2 * ((d * (d - 1) / 2) + d))
    (Obs.Metric.value reuse - r0)

(* [%g] printing keeps six digits, so two float constants can print
   alike; the access measure reads the AST, so the two queries keep
   their own records, while a true repeat shares one *)
let test_features_float_repeats () =
  Obs.set_enabled true;
  let a = parse "SELECT a FROM r WHERE a > 1.0000001"
  and b = parse "SELECT a FROM r WHERE a > 1.0000002" in
  Alcotest.(check string) "one printed text" (Sqlir.Printer.to_string a)
    (Sqlir.Printer.to_string b);
  let builds = Obs.Registry.counter "kitdpe.distance.features.builds" in
  let b0 = Obs.Metric.value builds in
  let ctx = Distance.Measure.default_ctx in
  let m = Distance.Measure.matrix ctx Distance.Measure.Access [ a; b; a ] in
  Alcotest.(check int) "two records" 2 (Obs.Metric.value builds - b0);
  Alcotest.(check (float 0.0)) "access (a, b) = reference" (Reference.access a b)
    (Mining.Dist_matrix.get m 0 1);
  Alcotest.(check bool) "and it is not 0" true (Mining.Dist_matrix.get m 0 1 > 0.0)

(* With telemetry off, a staged row allocates at most its boxed float
   result: nothing per call for the integer edit distance of a
   one-word pattern, 2 words for the access and edit evaluators. *)
let test_features_allocation () =
  let was_on = Obs.is_enabled () in
  Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was_on) (fun () ->
      let calls = 1000 in
      let per_call name limit (n, f) =
        let before = Gc.minor_words () in
        for c = 1 to calls do
          ignore (Sys.opaque_identity (f (c mod n)))
        done;
        let words = (Gc.minor_words () -. before) /. float_of_int calls in
        if words > limit then
          Alcotest.failf "%s: %.3f words per call, limit %.0f" name words limit
      in
      let log =
        Workload.Gen_query.skyserver_log
          { Workload.Gen_query.n = 60; templates = 4; seed = "alloc";
            caps = Workload.Gen_query.caps_for_measure M.Access }
      in
      let access = table Distance.Features.Areas log in
      let edit = table Distance.Features.Edit_tokens log in
      let n = List.length log in
      check_bool "one-word patterns" true (Distance.Features.len edit 0 <= 62);
      per_call "access eval" 2.0 (n, Distance.Features.eval ~x:0.5 access 0);
      per_call "edit eval" 2.0 (n, Distance.Features.eval ~x:0.5 edit 0);
      per_call "edit_distance_int" 0.0 (n, Distance.Features.edit_distance_int edit 0))

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
      ("clause",
       [ Alcotest.test_case "aligon distance" `Quick test_clause_distance;
         Alcotest.test_case "combine float order" `Quick test_clause_float_order ]);
      ("access",
       [ Alcotest.test_case "areas" `Quick test_access_areas;
         Alcotest.test_case "delta" `Quick test_delta;
         Alcotest.test_case "distance" `Quick test_access_distance;
         Alcotest.test_case "worst-case log" `Quick test_access_worst_case ]
       @ List.map (fun t -> QCheck_alcotest.to_alcotest t) access_properties);
      ("result", [ Alcotest.test_case "result distance" `Quick test_result_distance ]);
      ("measure",
       Alcotest.test_case "dispatch" `Quick test_measure
       :: List.map (fun t -> QCheck_alcotest.to_alcotest t) measure_properties);
      ("edit kernels",
       Alcotest.test_case "boundary lengths" `Quick test_myers_boundaries
       :: List.map (fun t -> QCheck_alcotest.to_alcotest t) kernel_properties);
      ("feature table",
       [ Alcotest.test_case "matrix bit-identical to seed" `Quick
           test_features_matrix_identity;
         Alcotest.test_case "pair evaluators" `Quick test_features_evaluators;
         Alcotest.test_case "another key's part" `Quick test_features_wrong_key;
         Alcotest.test_case "compute in the caller" `Quick test_compute_in_caller;
         Alcotest.test_case "builds/reuse metrics" `Quick test_features_metrics;
         Alcotest.test_case "fault point surfaces" `Quick test_features_fault;
         Alcotest.test_case "floats that print alike" `Quick
           test_features_float_repeats;
         Alcotest.test_case "staged rows allocate their result only" `Quick
           test_features_allocation ]) ]

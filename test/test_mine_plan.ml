(* The mining planner (Server.Mine_plan), as parse -> plan -> validate:
   one table row per decision case.  Each row names a request, the
   engine the planner must choose, and whether it must report a
   fallback; the row is then run and its labels checked against the
   plain algorithm over Measure.matrix: every engine is exact. *)

module M = Distance.Measure
module P = Server.Mine_plan
module W = Workload.Gen_query

type row = {
  measure : M.t;
  algo : string;
  engine : string;
  n : int;
  expect : P.engine;
  falls_back : bool;
}

let row ?(n = 70) measure algo engine expect ~falls_back =
  { measure; algo; engine; n; expect; falls_back }

let table =
  [ row M.Edit "dbscan" "index" P.Index ~falls_back:false;
    row M.Clause "dbscan" "index" P.Index ~falls_back:false;
    row ~n:512 M.Token "dbscan" "auto" P.Index ~falls_back:false;
    row ~n:511 M.Token "dbscan" "auto" P.Matrix ~falls_back:false;
    row ~n:512 M.Token "kmedoids" "auto" P.Matrix ~falls_back:false;
    row M.Structure "kmedoids" "index" P.Matrix ~falls_back:true;
    row M.Edit "clink" "index" P.Matrix ~falls_back:true;
    row M.Access "dbscan" "index" P.Matrix ~falls_back:true;
    row M.Result "dbscan" "index" P.Matrix ~falls_back:true;
    row M.Result "kmedoids" "auto" P.Matrix ~falls_back:false;
    row M.Token "clink" "matrix" P.Matrix ~falls_back:false;
    row M.Access "outliers" "matrix" P.Matrix ~falls_back:false ]

let params = { P.k = 4; eps = 0.4; seed = "plan-test" }

(* requests the planner must refuse with a Protocol error: "oracle" was
   an engine once and is now as unknown as any other name, for every algo
   and measure *)
let refused =
  [ (M.Token, "dbscan", "oracle");
    (M.Token, "kmedoids", "oracle");
    (M.Structure, "outliers", "oracle");
    (M.Access, "dbscan", "oracle") ]

let refused_n = 70

let name_of measure algo engine n =
  Printf.sprintf "%s %s %s n=%d" (M.to_string measure) algo engine n

let name r = name_of r.measure r.algo r.engine r.n

(* parse: the log as the CLI and the server see it *)
let parse_log r =
  W.skyserver_log
    { W.n = r.n; templates = 4; seed = "plan-" ^ M.to_string r.measure;
      caps = W.caps_for_measure r.measure }
  |> List.map Sqlir.Printer.to_string
  |> List.map (fun q ->
         match Sqlir.Parser.parse_result q with
         | Ok ast -> ast
         | Error e -> Alcotest.failf "generated query does not parse: %s" e)

let ctx_for r log =
  if r.measure = M.Result then
    M.ctx_with_db (Workload.Gen_db.for_log ~seed:"plan" ~rows:48 log)
  else M.default_ctx

(* the plain algorithm over the dense matrix: what every engine must
   reproduce *)
let reference r ctx log =
  let dm = M.matrix ctx r.measure log in
  match r.algo with
  | "dbscan" ->
    Mining.Dbscan.run { Mining.Dbscan.eps = params.eps; min_pts = 3 } dm
  | "kmedoids" ->
    Mining.Kmedoids.run { Mining.Kmedoids.k = params.k; max_iter = 50 } dm
  | "outliers" ->
    Array.map
      (fun b -> if b then 1 else 0)
      (Mining.Outlier.run { Mining.Outlier.p = 0.95; d = params.eps } dm)
  | _ -> Mining.Hier.cut_k params.k dm

let test_row r () =
  let log = parse_log r in
  (* plan *)
  let plan =
    match
      P.plan ~measure:r.measure ~algo:r.algo ~engine:r.engine ~n:r.n
        ~k:params.k
    with
    | Ok p -> p
    | Error e -> Alcotest.fail (Fault.Error.to_string e)
  in
  Alcotest.(check string) "planned engine" (P.engine_name r.expect)
    (P.engine_name plan.P.engine);
  Alcotest.(check bool) "fallback reported" r.falls_back
    (plan.P.fallback <> None);
  (* validate *)
  let ctx = ctx_for r log in
  let ran, labels = P.run ~ctx params plan log in
  let labels =
    match labels with
    | Ok l -> l
    | Error es ->
      Alcotest.fail (String.concat "; " (List.map Fault.Error.to_string es))
  in
  Alcotest.(check string) "ran as planned" (P.engine_name plan.P.engine)
    (P.engine_name ran.P.engine);
  Alcotest.(check int) "one label per query" r.n (Array.length labels);
  Alcotest.(check (array int)) "labels = plain algorithm on Measure.matrix"
    (reference r ctx log) labels;
  (* an all-noise DBSCAN would make the identity vacuous *)
  if r.algo = "dbscan" then
    Alcotest.(check bool) "some point clustered" true
      (Array.exists (fun l -> l >= 0) labels)

(* the matrix bound, at and just above it: planned but not run, since
   the 4096-query reference matrix alone is 64 MiB.  [Some (engine,
   falls_back)] is the plan, [None] a protocol error *)
let bounded =
  let at = P.max_matrix_n and above = P.max_matrix_n + 1 in
  [ (M.Token, "clink", "matrix", at, Some (P.Matrix, false));
    (M.Token, "clink", "matrix", above, None);
    (M.Token, "dbscan", "matrix", at, Some (P.Matrix, false));
    (M.Token, "dbscan", "matrix", above, Some (P.Index, true));
    (M.Edit, "dbscan", "auto", above, Some (P.Index, false));
    (M.Token, "kmedoids", "index", at, Some (P.Matrix, true));
    (M.Token, "kmedoids", "index", above, None);
    (M.Access, "dbscan", "auto", above, None) ]

let test_bounded (measure, algo, engine, n, expect) () =
  match (P.plan ~measure ~algo ~engine ~n ~k:params.k, expect) with
  | Ok plan, Some (engine, falls_back) ->
    Alcotest.(check string) "planned engine" (P.engine_name engine)
      (P.engine_name plan.P.engine);
    Alcotest.(check bool) "fallback reported" falls_back
      (plan.P.fallback <> None);
    if n > P.max_matrix_n && falls_back then
      Alcotest.(check bool) "reason names the bound" true
        (match plan.P.fallback with
         | Some r ->
           String.starts_with ~prefix:"matrix engine bounded at n <= 4096" r
         | None -> false)
  | Error (Fault.Error.Protocol _), None -> ()
  | Ok _, None -> Alcotest.fail "a matrix above the bound was planned"
  | Error e, _ -> Alcotest.fail (Fault.Error.to_string e)

let test_index_error_above_bound () =
  (* above the bound a failed index has no matrix to fall back to: the
     index error is the answer *)
  let r =
    row ~n:(P.max_matrix_n + 1) M.Token "dbscan" "index" P.Index
      ~falls_back:false
  in
  let log = parse_log r in
  let plan =
    Result.get_ok
      (P.plan ~measure:r.measure ~algo:r.algo ~engine:r.engine ~n:r.n
         ~k:params.k)
  in
  Fault.Inject.disarm_all ();
  (match Fault.Inject.arm_spec "index.build=always;seed=plan" with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  let ran, labels =
    Fun.protect ~finally:Fault.Inject.disarm_all (fun () ->
        P.run params plan log)
  in
  Alcotest.(check string) "no matrix ran" "index" (P.engine_name ran.P.engine);
  match labels with
  | Error [ Fault.Error.Injected { point = "index.build"; _ } ] -> ()
  | Error es ->
    Alcotest.fail (String.concat "; " (List.map Fault.Error.to_string es))
  | Ok _ -> Alcotest.fail "an armed index build must fail the request"

let test_unknown_algo () =
  match P.plan ~measure:M.Token ~algo:"foo" ~engine:"auto" ~n:10 ~k:2 with
  | Error (Fault.Error.Protocol { reason }) ->
    Alcotest.(check string) "reason"
      "unknown algo \"foo\" (dbscan, kmedoids, outliers or clink)" reason
  | _ -> Alcotest.fail "unknown algo must be a protocol error"

let test_refused (measure, algo, engine) () =
  match P.plan ~measure ~algo ~engine ~n:refused_n ~k:params.k with
  | Error (Fault.Error.Protocol { reason }) ->
    Alcotest.(check bool) "reason names the engine" true
      (String.starts_with
         ~prefix:(Printf.sprintf "unknown engine %S" engine)
         reason)
  | _ -> Alcotest.fail "an unknown engine must be a protocol error"

let test_unknown_engine () =
  match P.plan ~measure:M.Token ~algo:"dbscan" ~engine:"tiles" ~n:10 ~k:2 with
  | Error (Fault.Error.Protocol _) -> ()
  | _ -> Alcotest.fail "unknown engine must be a protocol error"

(* k is checked before any matrix exists: kmedoids and clink need
   1 <= k <= n, while dbscan and outliers ignore k *)
let test_k_range () =
  let planned algo engine k =
    match P.plan ~measure:M.Token ~algo ~engine ~n:20 ~k with
    | Ok _ -> `Ok
    | Error (Fault.Error.Protocol _) -> `Protocol
    | Error e -> Alcotest.fail (Fault.Error.to_string e)
  in
  List.iter
    (fun (algo, engine) ->
      let what k = Printf.sprintf "%s --engine %s -k %d" algo engine k in
      Alcotest.(check bool) (what 0) true (planned algo engine 0 = `Protocol);
      Alcotest.(check bool) (what 21) true (planned algo engine 21 = `Protocol);
      Alcotest.(check bool) (what 1) true (planned algo engine 1 = `Ok);
      Alcotest.(check bool) (what 20) true (planned algo engine 20 = `Ok))
    [ ("kmedoids", "matrix"); ("kmedoids", "index"); ("clink", "auto") ];
  List.iter
    (fun algo ->
      Alcotest.(check bool) (algo ^ " ignores k") true
        (planned algo "auto" 0 = `Ok && planned algo "auto" 50 = `Ok))
    [ "dbscan"; "outliers" ]

let test_runtime_fallback () =
  (* a neighbor engine that fails at runtime hands over to the matrix
     engine, and the plan that ran says why *)
  let r = row M.Token "dbscan" "index" P.Index ~falls_back:false in
  let log = parse_log r in
  let plan =
    Result.get_ok
      (P.plan ~measure:r.measure ~algo:r.algo ~engine:r.engine ~n:r.n
         ~k:params.k)
  in
  Fault.Inject.disarm_all ();
  (match Fault.Inject.arm_spec "index.build=always;seed=plan" with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  let ran, labels =
    Fun.protect ~finally:Fault.Inject.disarm_all (fun () ->
        P.run params plan log)
  in
  Alcotest.(check string) "matrix ran" "matrix" (P.engine_name ran.P.engine);
  (match ran.P.fallback with
   | Some reason ->
     Alcotest.(check bool) "reason names the failed engine" true
       (String.starts_with ~prefix:"index engine failed:" reason)
   | None -> Alcotest.fail "no fallback reason");
  match labels with
  | Ok l ->
    Alcotest.(check (array int)) "matrix labels"
      (reference r M.default_ctx log) l
  | Error _ -> Alcotest.fail "matrix fallback failed"

(* Golden labels: SHA-256 of the matrix engine's labels for every
   feature measure x algorithm on one generated log.  The digests pin
   the mining output bit for bit across refactors of the matrix, the
   measures and the algorithms; n = 120 keeps complete link cheap. *)
let golden_log =
  lazy
    (W.skyserver_log
       { W.n = 120; templates = 24; seed = "golden-labels"; caps = W.caps_full })

let golden_params = { P.k = 4; eps = 0.2; seed = "golden-labels" }

let golden =
  [ (M.Token, "dbscan",
     "a37de26bcaac939e24a38b09d19ac4b9d03c50730e512ba710bf1b9277f9495f");
    (M.Token, "kmedoids",
     "09d9ada7b0bc8ccf68a2084ba1283e6df41b80d9aeeae5ca9618f7d788bc9df9");
    (M.Token, "outliers",
     "7148e4e997146a8bd7bc934c420ebe86d6a807b5e88a985933710cdf706c565f");
    (M.Token, "clink",
     "d0288358444d66836895ea7f1f5ba559f2f5d20c0d963ef6a148cb7db27efa6d");
    (M.Edit, "dbscan",
     "27e4b9195425f957e242f52c97d53d26ab45567b51762786bddb6ea8a80effbb");
    (M.Edit, "kmedoids",
     "f506b72cf6f5d47dafa8bf36d41be8fe6546c7010b775c18f9414f50ed793597");
    (M.Edit, "outliers",
     "d4920e7ac282f4600f21f7ea4698017c90ec009682aeddb328c3111e8e70cb5f");
    (M.Edit, "clink",
     "d0288358444d66836895ea7f1f5ba559f2f5d20c0d963ef6a148cb7db27efa6d");
    (M.Structure, "dbscan",
     "f67a75223409f0507cf0c0bb151c8f4f5d42c0f75e43642eac277817e12e9539");
    (M.Structure, "kmedoids",
     "7a519be233680301422b31eca7d34fe2b55955092a7cd4ec5c5d4aba597af33c");
    (M.Structure, "outliers",
     "d4920e7ac282f4600f21f7ea4698017c90ec009682aeddb328c3111e8e70cb5f");
    (M.Structure, "clink",
     "d0288358444d66836895ea7f1f5ba559f2f5d20c0d963ef6a148cb7db27efa6d");
    (M.Clause, "dbscan",
     "e716c0be47e7641332be34e7e8beb9f34567c0293478ce2ec1e0862e6e6005f1");
    (M.Clause, "kmedoids",
     "7a519be233680301422b31eca7d34fe2b55955092a7cd4ec5c5d4aba597af33c");
    (M.Clause, "outliers",
     "499ad6f43f35a8a821dab12e82259308b56b7ed8c20f692619f1cb911e054c13");
    (M.Clause, "clink",
     "d0288358444d66836895ea7f1f5ba559f2f5d20c0d963ef6a148cb7db27efa6d");
    (M.Access, "dbscan",
     "c1541830203bc46f2a1b43fd4d391ca6dba7ce00037b444c3a640b97f8a70c49");
    (M.Access, "kmedoids",
     "7a519be233680301422b31eca7d34fe2b55955092a7cd4ec5c5d4aba597af33c");
    (M.Access, "outliers",
     "c6d5010e47030fe9be0c7d7a86fb087bc28c61347cef256f9cd804835125068c");
    (M.Access, "clink",
     "d0288358444d66836895ea7f1f5ba559f2f5d20c0d963ef6a148cb7db27efa6d") ]

let test_golden (measure, algo, digest) () =
  let log = Lazy.force golden_log in
  let plan =
    Result.get_ok
      (P.plan ~measure ~algo ~engine:"matrix" ~n:(List.length log)
         ~k:golden_params.P.k)
  in
  match P.run golden_params plan log with
  | _, Ok labels ->
    let got =
      Crypto.Sha256.hex
        (String.concat "," (Array.to_list (Array.map string_of_int labels)))
    in
    Alcotest.(check string) "labels digest" digest got
  | _, Error es ->
    Alcotest.fail (String.concat "; " (List.map Fault.Error.to_string es))

(* ---- repeated queries: the class-grouped engines against a
   no-grouping reference ---- *)

(* What the engines computed before queries were grouped into measure
   classes: every pair evaluated on its own by the per-pair definitions
   of [Reference], and index DBSCAN over all n points, one range query
   per point. *)
module Ref_fill = struct
  let matrix measure log = Reference.matrix M.default_ctx measure log

  let dbscan_matrix ~eps dm = Mining.Dbscan.run { Mining.Dbscan.eps; min_pts = 3 } dm

  let dbscan_index measure ~eps log =
    let feats = Distance.Features.build (Array.of_list log) in
    let tree =
      Index.Vp_tree.build ~seed:"ref"
        (Index.Space.flat measure feats)
    in
    Mining.Dbscan.run_index ~min_pts:3
      { Mining.Dbscan.ri_n = List.length log;
        range = (fun i -> Index.Vp_tree.range tree ~eps i) }
end

(* a query whose structure set is empty ([SELECT *] without FROM) and
   one whose clause projection is empty (no select item) *)
let empty_structure = Sqlir.Ast.simple_query
let empty_projection = { Sqlir.Ast.simple_query with select = []; from = [ "r" ] }

(* forced duplicates: every query of a generated log twice, the first
   three times, and the two empty-set queries twice each *)
let repeated_log ~seed ~n =
  let base =
    W.skyserver_log
      { W.n; templates = 3; seed = "repeat-" ^ string_of_int seed;
        caps = W.caps_full }
    @ [ empty_structure; empty_projection ]
  in
  (List.hd base :: base) @ base

let grouped_measures = [ M.Token; M.Structure; M.Clause; M.Edit; M.Access ]
let grouped_eps = [ -0.1; 0.0; 0.1; 0.6; Float.nan ]

let dbscan_labels measure engine ~eps log =
  let plan =
    Result.get_ok
      (P.plan ~measure ~algo:"dbscan" ~engine ~n:(List.length log) ~k:1)
  in
  match P.run { P.k = 1; eps; seed = "grouped" } plan log with
  | _, Ok labels -> labels
  | _, Error es ->
    QCheck.Test.fail_reportf "%s"
      (String.concat "; " (List.map Fault.Error.to_string es))

let grouped_matches_reference (seed, n) =
  let log = repeated_log ~seed ~n in
  List.for_all
    (fun measure ->
      let reference = Ref_fill.matrix measure log in
      let grouped = M.matrix M.default_ctx measure log in
      if Mining.Dist_matrix.max_abs_diff grouped reference <> 0.0 then
        QCheck.Test.fail_reportf "%s: matrix differs" (M.to_string measure);
      List.for_all
        (fun eps ->
          let want = Ref_fill.dbscan_matrix ~eps reference in
          let agrees engine =
            dbscan_labels measure engine ~eps log = want
            || QCheck.Test.fail_reportf "%s eps %g: %s engine labels differ"
                 (M.to_string measure) eps engine
          in
          agrees "matrix" && agrees "index"
          && ((not (Index.Space.supported measure))
             || Ref_fill.dbscan_index measure ~eps log = want
             || QCheck.Test.fail_reportf "%s eps %g: reference index differs"
                  (M.to_string measure) eps))
        grouped_eps)
    grouped_measures

let grouped_property =
  QCheck.Test.make ~name:"grouped engines = no-grouping reference" ~count:15
    QCheck.(pair small_nat (int_range 3 14))
    grouped_matches_reference

(* ---- exact counters on a generated log ---- *)

let counter name = Obs.Registry.counter name

let delta name f =
  Obs.set_enabled true;
  let c = counter name in
  let before = Obs.Metric.value c in
  let v = f () in
  (v, Obs.Metric.value c - before)

(* each measure's classes, grouped apart from [Distance.Features] on the
   inputs its per-pair definition reads; returns the class count and the
   number of classes with two or more members *)
let class_counts measure log =
  let printed q = Sqlir.Printer.to_string q in
  let tokens q = Distance.D_token.fuse (Sqlir.Lexer.tokenize (printed q)) in
  let key q =
    match measure with
    | M.Token -> `Strings (List.sort_uniq String.compare (tokens q))
    | M.Edit -> `Strings (tokens q)
    | M.Structure ->
      `Strings (List.map Distance.Feature.to_string (Distance.Feature.of_query q))
    | M.Clause ->
      `Clause
        ( Distance.D_clause.projection_set q,
          Distance.D_clause.group_by_set q,
          Distance.D_clause.selection_set q )
    | M.Access -> `Areas (Distance.Access_area.of_query q)
    | M.Result -> Alcotest.fail "result has no classes"
  in
  let sizes = Hashtbl.create 16 in
  List.iter
    (fun q ->
      let k = key q in
      Hashtbl.replace sizes k (1 + Option.value ~default:0 (Hashtbl.find_opt sizes k)))
    log;
  (Hashtbl.length sizes, Hashtbl.fold (fun _ c m -> if c > 1 then m + 1 else m) sizes 0)

let counted_log =
  lazy
    (let log =
       W.skyserver_log
         { W.n = 90; templates = 4; seed = "counted"; caps = W.caps_full }
     in
     (* as the server sees it: printed, then parsed *)
     List.map (fun q -> Sqlir.Parser.parse (Sqlir.Printer.to_string q)) (log @ log))

let test_counted_evals () =
  let log = Lazy.force counted_log in
  List.iter
    (fun measure ->
      let d, m = class_counts measure log in
      let _, evals =
        delta "kitdpe.distance.measure.evals" (fun () ->
            M.matrix M.default_ctx measure log)
      in
      Alcotest.(check bool)
        (M.to_string measure ^ " repeats a class") true (m > 0 && d < List.length log);
      Alcotest.(check int)
        (M.to_string measure ^ ": d(d-1)/2 + m evals")
        ((d * (d - 1) / 2) + m) evals)
    grouped_measures

let test_counted_builds () =
  let log = Lazy.force counted_log in
  let distinct =
    List.length (List.sort_uniq String.compare (List.map Sqlir.Printer.to_string log))
  in
  let _, builds =
    delta "kitdpe.distance.features.builds" (fun () ->
        M.matrix M.default_ctx M.Token log)
  in
  Alcotest.(check int) "one build per distinct printed query" distinct builds

let test_counted_index_queries () =
  let log = Lazy.force counted_log in
  List.iter
    (fun measure ->
      let d, _ = class_counts measure log in
      let labels, queries =
        delta "kitdpe.index.queries" (fun () ->
            dbscan_labels measure "index" ~eps:0.3 log)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d index queries <= %d classes" (M.to_string measure)
           queries d)
        true
        (queries > 0 && queries <= d);
      Alcotest.(check (array int))
        (M.to_string measure ^ " labels = matrix")
        (dbscan_labels measure "matrix" ~eps:0.3 log)
        labels)
    [ M.Token; M.Structure; M.Clause; M.Edit ]

(* ---- faults still pass per query, repeats included ---- *)

let with_armed spec f =
  Fault.Inject.disarm_all ();
  (match Fault.Inject.arm_spec spec with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Fault.Inject.disarm_all (fun () ->
      let v = f () in
      (v, Fault.Inject.stats ()))

let failed_rows label = function
  | Ok _ -> Alcotest.fail "an armed point must fail the matrix"
  | Error es ->
    List.map
      (function
        | Fault.Error.Task_failed { label = l; index; _ } when l = label -> index
        | e -> Alcotest.fail (Fault.Error.to_string e))
      es

let calls_of point stats =
  match List.find_opt (fun (name, _, _, _) -> name = point) stats with
  | Some (_, _, calls, _) -> calls
  | None -> Alcotest.fail ("not armed: " ^ point)

let test_faults_per_query () =
  let log = repeated_log ~seed:7 ~n:6 in
  let n = List.length log in
  (* 17 queries: index 1 repeats index 0, and 9 .. 16 repeat 1 .. 8 *)
  let result, stats =
    with_armed "distance.features.build=every:3" (fun () ->
        M.matrix_r M.default_ctx M.Token log)
  in
  Alcotest.(check (list int)) "every third query fails its build"
    (List.filter (fun i -> i mod 3 = 0) (List.init n Fun.id))
    (failed_rows "features.build" result);
  Alcotest.(check int) "one build point per query" n
    (calls_of "distance.features.build" stats);
  (* cell (1, 10) pairs two repeats of one query *)
  let result, stats =
    with_armed
      (Printf.sprintf "mining.dist_matrix.eval=nth:%d" ((1 lsl 20) lor 10))
      (fun () -> M.matrix_r M.default_ctx M.Token log)
  in
  Alcotest.(check (list int)) "the repeated cell fails its row" [ 1 ]
    (failed_rows "dist_matrix.row" result);
  (* row 1 stops at its failed cell, before cells (1, 11) .. (1, n-1) *)
  Alcotest.(check int) "one eval point per cell" ((n * (n - 1) / 2) - (n - 11))
    (calls_of "mining.dist_matrix.eval" stats)

(* The index holds one point per class, but [index.build] still passes
   once per query, keyed by the query index: a trigger on a key past the
   class count fires, and the run falls back to the matrix. *)
let test_index_build_keys () =
  let log = repeated_log ~seed:7 ~n:6 in
  let n = List.length log in
  let d, _ = class_counts M.Token log in
  Alcotest.(check bool) (Printf.sprintf "%d classes < key %d" d (n - 1)) true (d < n - 1);
  let plan = Result.get_ok (P.plan ~measure:M.Token ~algo:"dbscan" ~engine:"index" ~n ~k:1) in
  let params = { P.k = 1; eps = 0.3; seed = "keys" } in
  let (ran, labels), stats =
    with_armed (Printf.sprintf "index.build=nth:%d" (n - 1)) (fun () -> P.run params plan log)
  in
  Alcotest.(check int) "one build point per query" n (calls_of "index.build" stats);
  Alcotest.(check string) "matrix ran" "matrix" (P.engine_name ran.P.engine);
  Alcotest.(check bool) "the reason names the failed index" true
    (match ran.P.fallback with
     | Some r -> String.starts_with ~prefix:"index engine failed:" r
     | None -> false);
  Alcotest.(check (array int)) "labels of the matrix"
    (dbscan_labels M.Token "matrix" ~eps:0.3 log)
    (Result.get_ok labels)

(* An evaluation that raises (the access measure outside 0 < x < 1)
   fails the same matrix rows, with the same errors, as the per-pair
   fill, for every pool size. *)
let test_raising_rows () =
  let log = repeated_log ~seed:3 ~n:5 in
  let qs = Array.of_list log in
  let ctx = { M.default_ctx with x = 1.5 } in
  let errors = function
    | Ok _ -> Alcotest.fail "every evaluation raises"
    | Error es -> List.map Fault.Error.to_string es
  in
  let reference =
    errors
      (Mining.Dist_matrix.of_fun_r (Array.length qs) (fun i j ->
           M.compute ctx M.Access qs.(i) qs.(j)))
  in
  Alcotest.(check int) "every row with a cell fails" (Array.length qs - 1)
    (List.length reference);
  List.iter
    (fun domains ->
      let pool = Parallel.Pool.create ~domains () in
      Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) (fun () ->
          Alcotest.(check (list string))
            (Printf.sprintf "rows of the per-pair fill, %d domains" domains)
            reference
            (errors (M.matrix_r ~pool ctx M.Access log))))
    [ 1; 2 ]

let () =
  Alcotest.run "mine_plan"
    [ ("table",
       List.map (fun r -> Alcotest.test_case (name r) `Quick (test_row r)) table
       @ List.map
           (fun ((measure, algo, engine) as req) ->
             Alcotest.test_case
               (name_of measure algo engine refused_n)
               `Quick (test_refused req))
           refused
       @ List.map
           (fun ((measure, algo, engine, n, _) as b) ->
             Alcotest.test_case (name_of measure algo engine n) `Quick
               (test_bounded b))
           bounded);
      ("errors",
       [ Alcotest.test_case "unknown algo" `Quick test_unknown_algo;
         Alcotest.test_case "unknown engine" `Quick test_unknown_engine;
         Alcotest.test_case "k out of range" `Quick test_k_range;
         Alcotest.test_case "runtime fallback" `Quick test_runtime_fallback;
         Alcotest.test_case "no fallback above the bound" `Quick
           test_index_error_above_bound ]);
      ("classes",
       [ QCheck_alcotest.to_alcotest grouped_property;
         Alcotest.test_case "evals per class pair" `Quick test_counted_evals;
         Alcotest.test_case "builds per distinct query" `Quick test_counted_builds;
         Alcotest.test_case "index queries per class" `Quick
           test_counted_index_queries;
         Alcotest.test_case "faults per query" `Quick test_faults_per_query;
         Alcotest.test_case "index.build keyed per query" `Quick
           test_index_build_keys;
         Alcotest.test_case "raising evaluations fail their rows" `Quick
           test_raising_rows ]);
      ("golden",
       List.map
         (fun ((measure, algo, _) as g) ->
           Alcotest.test_case
             (Printf.sprintf "labels %s %s" (M.to_string measure) algo)
             `Quick (test_golden g))
         golden) ]

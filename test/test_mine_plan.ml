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
      ("golden",
       List.map
         (fun ((measure, algo, _) as g) ->
           Alcotest.test_case
             (Printf.sprintf "labels %s %s" (M.to_string measure) algo)
             `Quick (test_golden g))
         golden) ]

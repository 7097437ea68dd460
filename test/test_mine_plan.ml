(* The mining planner (Server.Mine_plan), as parse -> plan -> validate:
   one table row per decision case.  Each row names a request, the
   engine the planner must choose, and whether it must report a
   fallback; the row is then run and its labels checked against the
   plain algorithm over Measure.matrix wherever the engine claims
   identical labels. *)

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
  [ row M.Token "dbscan" "oracle" P.Oracle ~falls_back:false;
    row M.Edit "dbscan" "index" P.Index ~falls_back:false;
    row M.Clause "dbscan" "index" P.Index ~falls_back:false;
    row ~n:512 M.Token "dbscan" "auto" P.Index ~falls_back:false;
    row ~n:511 M.Token "dbscan" "auto" P.Matrix ~falls_back:false;
    (* the CLARANS swap regression: auto must keep Park-Jun k-medoids *)
    row ~n:512 M.Token "kmedoids" "auto" P.Matrix ~falls_back:false;
    row M.Structure "kmedoids" "index" P.Clarans ~falls_back:false;
    row M.Token "kmedoids" "oracle" P.Matrix ~falls_back:true;
    row M.Edit "clink" "index" P.Matrix ~falls_back:true;
    row M.Structure "outliers" "oracle" P.Matrix ~falls_back:true;
    row M.Access "dbscan" "index" P.Matrix ~falls_back:true;
    row M.Access "dbscan" "oracle" P.Matrix ~falls_back:true;
    row M.Result "dbscan" "index" P.Matrix ~falls_back:true;
    row M.Result "kmedoids" "auto" P.Matrix ~falls_back:false;
    row M.Token "clink" "matrix" P.Matrix ~falls_back:false;
    row M.Access "outliers" "matrix" P.Matrix ~falls_back:false ]

let params = { P.k = 4; eps = 0.4; seed = "plan-test" }

let name r =
  Printf.sprintf "%s %s %s n=%d" (M.to_string r.measure) r.algo r.engine r.n

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

(* the plain algorithm over the dense matrix: what every label-identical
   engine must reproduce *)
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
    match P.plan ~measure:r.measure ~algo:r.algo ~engine:r.engine ~n:r.n with
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
  match r.expect with
  | P.Clarans ->
    (* approximate: no label identity, but a seeded, deterministic
       k-labelling *)
    Array.iter
      (fun l ->
        Alcotest.(check bool) "label in range" true (l >= 0 && l < params.k))
      labels;
    Alcotest.(check (array int)) "same seed, same labels" labels
      (match snd (P.run ~ctx params plan log) with
       | Ok l -> l
       | Error _ -> Alcotest.fail "rerun failed")
  | P.Matrix | P.Oracle | P.Index ->
    Alcotest.(check (array int)) "labels = plain algorithm on Measure.matrix"
      (reference r ctx log) labels;
    (* an all-noise DBSCAN would make the identity vacuous *)
    if r.algo = "dbscan" then
      Alcotest.(check bool) "some point clustered" true
        (Array.exists (fun l -> l >= 0) labels)

let test_unknown_algo () =
  match P.plan ~measure:M.Token ~algo:"foo" ~engine:"auto" ~n:10 with
  | Error (Fault.Error.Protocol { reason }) ->
    Alcotest.(check string) "reason"
      "unknown algo \"foo\" (dbscan, kmedoids, outliers or clink)" reason
  | _ -> Alcotest.fail "unknown algo must be a protocol error"

let test_unknown_engine () =
  match P.plan ~measure:M.Token ~algo:"dbscan" ~engine:"tiles" ~n:10 with
  | Error (Fault.Error.Protocol _) -> ()
  | _ -> Alcotest.fail "unknown engine must be a protocol error"

let test_runtime_fallback () =
  (* a neighbor engine that fails at runtime hands over to the matrix
     engine, and the plan that ran says why *)
  let r = row M.Token "dbscan" "index" P.Index ~falls_back:false in
  let log = parse_log r in
  let plan =
    Result.get_ok
      (P.plan ~measure:r.measure ~algo:r.algo ~engine:r.engine ~n:r.n)
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

let () =
  Alcotest.run "mine_plan"
    [ ("table",
       List.map (fun r -> Alcotest.test_case (name r) `Quick (test_row r)) table);
      ("errors",
       [ Alcotest.test_case "unknown algo" `Quick test_unknown_algo;
         Alcotest.test_case "unknown engine" `Quick test_unknown_engine;
         Alcotest.test_case "runtime fallback" `Quick test_runtime_fallback ]) ]

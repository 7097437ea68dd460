(* The benchmark's own tests: the request generator is deterministic,
   every workload completes a short run with every output check
   passing, the traced run reports every per-layer metric, and its
   work counts repeat exactly across two runs with the same seed.

   Run with: dune build @servebench/benchtest *)

open Servebench

let render j = Server.Proto.render j

(* the plaintext side of a workload's request stream, rendered *)
let stream ~seed workload =
  let enc =
    if Gen.sends_encrypt workload then
      List.map (fun r -> render (Gen.encrypt_json ~id:0 r)) (Gen.warmup ~seed)
      @ List.init (2 * Gen.enc_cycle) (fun i -> render (Gen.encrypt_json ~id:(i + 1) (Gen.encrypt ~seed i)))
    else []
  in
  let logs = Gen.mine_logs workload in
  let mine =
    Array.to_list (Array.map (fun l -> String.concat "\n" (Gen.mine_plain ~seed l)) logs)
    @ List.init (2 * Gen.mine_cycle_of workload) (fun j ->
          let r = Gen.mine workload j in
          Printf.sprintf "%d %s %d %h %s" r.log r.algo r.k r.eps
            (Option.value r.engine ~default:""))
  in
  String.concat "\n" (enc @ mine)

let test_generator workload () =
  let a = stream ~seed:"7" workload and b = stream ~seed:"7" workload in
  Alcotest.(check bool) "same seed, byte-identical stream" true (String.equal a b);
  Alcotest.(check bool) "another seed, another stream" false
    (String.equal a (stream ~seed:"8" workload))

let positive (r : Bench.result) =
  List.iter
    (fun (m : Bench.metric) ->
      if not (m.value > 0.) then Alcotest.failf "metric %s is %g, not positive" m.name m.value)
    r.metrics

let test_smoke workload () =
  let r = Bench.run_untraced ~seed:"3" ~seconds:1 workload in
  Alcotest.(check bool) "requests sent" true (r.attempted >= 1);
  Alcotest.(check int) "failed requests and checks" 0 r.failed;
  Alcotest.(check (list string)) "end-to-end metrics"
    [ "setup_s"; "throughput_rps"; "p50_ms"; "p90_ms"; "heap_peak_mb" ]
    (List.map (fun (m : Bench.metric) -> m.name) r.metrics);
  positive r

let exact_counts =
  [ "distance.evals_per_req"; "index.probes_per_query"; "crypto.ope.misses_per_req";
    "crypto.det.misses_per_req"; "mining.hier.cluster_dists"; "crypto.paillier.modexp" ]

let value (r : Bench.result) name =
  match List.find_opt (fun (m : Bench.metric) -> m.name = name) r.metrics with
  | Some m -> m.value
  | None -> Alcotest.failf "metric %s missing" name

let test_traced workload () =
  let a = Layers.run_traced ~seed:"5" ~seconds:1 workload in
  let b = Layers.run_traced ~seed:"5" ~seconds:1 workload in
  Alcotest.(check int) "failed requests and checks" 0 a.failed;
  Alcotest.(check int) "per-layer metrics" 28 (List.length a.metrics);
  List.iter
    (fun name ->
      Alcotest.(check (float 0.)) (name ^ " repeats exactly") (value a name) (value b name))
    exact_counts;
  let cov = value a "trace.coverage" in
  if workload <> Gen.Mixed && Float.abs (cov -. 1.) > Layers.coverage_tolerance then
    Alcotest.failf "trace.coverage %g outside 1 +- %g" cov Layers.coverage_tolerance

let () =
  let per_workload f =
    List.map
      (fun w -> Alcotest.test_case (Gen.workload_to_string w) `Slow (f w))
      Gen.workloads
  in
  Alcotest.run "servebench"
    [ ("generator", per_workload test_generator);
      ("smoke", per_workload test_smoke);
      ( "traced",
        [ Alcotest.test_case "mixed" `Slow (test_traced Gen.Mixed);
          Alcotest.test_case "mine-index" `Slow (test_traced Gen.Mine_index) ] ) ]

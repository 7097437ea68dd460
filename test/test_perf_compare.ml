(* The verdicts of [perf --compare] on snapshots built by hand: counts
   are gated exactly, a timed row only warns when it is more than 20 %
   slower beyond both runs' spreads, and a row on one side only is
   reported but never gated. *)

module P = Perf_compare

let spread median iqr = { P.median; iqr }

let timed ?(op = "dist_matrix/edit") ?(n = 200) s =
  { P.op; n; domains = 1; cur = s; base = Some (spread 1e9 1e7, true) }

let snap ?(rows = []) ?(counts = []) () = { P.rows; counts }

let verdicts lines = List.map (fun l -> (l.P.what, l.P.verdict)) lines

let verdict =
  Alcotest.testable
    (fun ppf v ->
      Format.pp_print_string ppf
        (match v with
         | P.Same -> "Same"
         | P.Slower -> "Slower"
         | P.Rose -> "Rose"
         | P.Unpaired -> "Unpaired"))
    ( = )

let check_lines msg expected lines =
  Alcotest.(check (list (pair string verdict))) msg expected (verdicts lines)

let test_counts () =
  let old = snap ~counts:[ ("distance.measure.evals", 278) ] () in
  let rose = P.compare ~old ~cur:(snap ~counts:[ ("distance.measure.evals", 279) ] ()) in
  check_lines "a rise fails" [ ("distance.measure.evals", P.Rose) ] rose;
  Alcotest.(check int) "count exit code" 4 (P.exit_code rose);
  let fell = P.compare ~old ~cur:(snap ~counts:[ ("distance.measure.evals", 277) ] ()) in
  check_lines "a fall passes" [ ("distance.measure.evals", P.Same) ] fell;
  Alcotest.(check int) "fall exits 0" 0 (P.exit_code fell)

let test_timings () =
  let old = snap ~rows:[ timed (spread 100e6 2e6) ] () in
  let tight = P.compare ~old ~cur:(snap ~rows:[ timed (spread 130e6 2e6) ] ()) in
  check_lines "+30 % outside both spreads warns"
    [ ("dist_matrix/edit n=200", P.Slower) ] tight;
  Alcotest.(check int) "timing exit code" 3 (P.exit_code tight);
  (* 30 ms apart, within the 20 + 15 ms of the two spreads *)
  let wide = P.compare ~old:(snap ~rows:[ timed (spread 100e6 20e6) ] ())
      ~cur:(snap ~rows:[ timed (spread 130e6 15e6) ] ()) in
  check_lines "+30 % inside the spreads is ok"
    [ ("dist_matrix/edit n=200", P.Same) ] wide;
  Alcotest.(check int) "ok exits 0" 0 (P.exit_code wide);
  (* far outside the spreads but under the 20 % bound *)
  let small = P.compare ~old ~cur:(snap ~rows:[ timed (spread 115e6 0.0) ] ()) in
  check_lines "+15 % is ok" [ ("dist_matrix/edit n=200", P.Same) ] small

let test_one_side () =
  let old =
    snap ~rows:[ timed (spread 1e6 0.0); timed ~op:"gone/row" (spread 1e6 0.0) ]
      ~counts:[ ("gone.count", 5) ] ()
  in
  let cur =
    snap ~rows:[ timed (spread 1e6 0.0); timed ~op:"new/row" (spread 9e9 0.0) ]
      ~counts:[ ("new.count", 7) ] ()
  in
  let lines = P.compare ~old ~cur in
  check_lines "reported, not gated"
    [ ("dist_matrix/edit n=200", P.Same); ("new/row n=200", P.Unpaired);
      ("gone/row n=200", P.Unpaired); ("new.count", P.Unpaired);
      ("gone.count", P.Unpaired) ]
    lines;
  Alcotest.(check int) "exits 0" 0 (P.exit_code lines)

let test_summarize () =
  let s = P.summarize [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  Alcotest.(check (float 0.0)) "median" 3.0 s.P.median;
  Alcotest.(check (float 0.0)) "interquartile range" 2.0 s.P.iqr

(* the writer's fields read back as the same snapshot *)
let test_roundtrip () =
  let s =
    snap
      ~rows:
        [ timed (spread 1234.5 6.7);
          { P.op = "ppe/sha256"; n = 52; domains = 1; cur = spread 900.0 3.0;
            base = None } ]
      ~counts:[ ("index/probes/edit/1000", 8768) ] ()
  in
  let path = Filename.temp_file "perf_compare" ".json" in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Obs.Json.to_string (Obs.Json.Obj (P.fields s))));
  let back = P.load path in
  Sys.remove path;
  match back with
  | Error e -> Alcotest.fail e
  | Ok b ->
    Alcotest.(check bool) "rows" true (b.P.rows = s.P.rows);
    Alcotest.(check (list (pair string int))) "counts" s.P.counts b.P.counts

let () =
  Alcotest.run "perf_compare"
    [ ("verdicts",
       [ Alcotest.test_case "counts gate exactly" `Quick test_counts;
         Alcotest.test_case "timings warn beyond the spreads" `Quick test_timings;
         Alcotest.test_case "one side only" `Quick test_one_side ]);
      ("snapshot",
       [ Alcotest.test_case "median and quartiles" `Quick test_summarize;
         Alcotest.test_case "json roundtrip" `Quick test_roundtrip ]) ]

(* Experiment harness: regenerates every display item of the paper plus the
   formal claims as measurable artifacts, and runs the Bechamel performance
   micro-benchmarks.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig1    -- only Fig. 1
     ... fig1 | table1 | preserve | mining | security | perf
     dune exec bench/main.exe -- perf --json            -- write BENCH_PR7.json
     dune exec bench/main.exe -- perf --json=perf.json  -- explicit output path
     ... perf --json --compare BENCH_PR6.json  -- diff vs an old snapshot
                                                  (exit 3 on >20% regression)

   See DESIGN.md section 3 for the experiment index and EXPERIMENTS.md for
   recorded paper-vs-measured outcomes. *)

module M = Distance.Measure

let keyring = Crypto.Keyring.of_passphrase "bench-harness"

let section title =
  Format.printf "@.=== %s ===@.@." title

let hr () = Format.printf "%s@." (String.make 100 '-')

(* ---------------------------------------------------------------- *)
(* F1: Fig. 1 — taxonomy of PPE classes, with measured leakage        *)
(* ---------------------------------------------------------------- *)

let fig1 () =
  section "F1 / Fig. 1: taxonomy of property-preserving encryption classes";
  Format.printf "%-10s %-5s %s@." "class" "row" "leakage";
  hr ();
  List.iter
    (fun c ->
      Format.printf "%-10s %-5d %s@." (Dpe.Taxonomy.to_string c)
        (Dpe.Taxonomy.security_level c) (Dpe.Taxonomy.leakage c))
    Dpe.Taxonomy.all;
  Format.printf "@.subclass / usage-mode arrows: %s@."
    (String.concat ", "
       (List.map
          (fun (a, b) ->
            Dpe.Taxonomy.to_string a ^ " -> " ^ Dpe.Taxonomy.to_string b)
          Dpe.Taxonomy.subclass_edges));

  (* empirical cross-check: attack recovery on one reference column must be
     monotone along the security rows *)
  Format.printf "@.measured attack recovery on a reference column (1000 cells, zipf-ish):@.";
  let rng = Crypto.Drbg.create ~seed:"fig1" in
  let plains =
    List.init 1000 (fun _ ->
        (* skewed integers over a small domain *)
        let r = Crypto.Drbg.uniform_int rng 100 in
        Minidb.Value.Vint (if r < 40 then 1 else if r < 65 then 2 else r))
  in
  let aux = Attack.Aux_model.of_values plains in
  let det = Crypto.Keyring.det keyring "fig1-det" in
  let ope = Crypto.Keyring.ope keyring "fig1-ope" in
  let prob = Crypto.Keyring.prob keyring "fig1-prob" in
  let cipher cls v =
    match cls, v with
    | Dpe.Taxonomy.PROB, _ | Dpe.Taxonomy.HOM, _ ->
      Minidb.Value.Vstring
        (Crypto.Hex.encode
           (Crypto.Prob.encrypt prob rng (Minidb.Value.to_string v)))
    | (Dpe.Taxonomy.DET | Dpe.Taxonomy.JOIN), _ ->
      Minidb.Value.Vstring
        (Crypto.Hex.encode (Crypto.Det.encrypt det (Minidb.Value.to_string v)))
    | (Dpe.Taxonomy.OPE | Dpe.Taxonomy.JOIN_OPE), Minidb.Value.Vint n ->
      Minidb.Value.Vint (Crypto.Ope.encrypt ope (n + (1 lsl 31)))
    | (Dpe.Taxonomy.OPE | Dpe.Taxonomy.JOIN_OPE), v -> v
  in
  let rates =
    List.map
      (fun cls ->
        let pairs = List.map (fun p -> (p, cipher cls p)) plains in
        (cls, (Attack.Attacks.for_class cls aux pairs).Attack.Attacks.rate))
      [ Dpe.Taxonomy.PROB; Dpe.Taxonomy.DET; Dpe.Taxonomy.OPE ]
  in
  List.iter
    (fun (cls, r) ->
      Format.printf "  %-10s recovery = %.3f@." (Dpe.Taxonomy.to_string cls) r)
    rates;
  let ordered =
    match List.map snd rates with
    | [ p; d; o ] -> p <= d && d <= o
    | _ -> false
  in
  Format.printf "  monotone along Fig. 1 rows: %s@."
    (if ordered then "PASS" else "FAIL")

(* ---------------------------------------------------------------- *)
(* T1: Table I — derived DPE schemes per distance measure             *)
(* ---------------------------------------------------------------- *)

(* a log that exercises every usage class, so the per-operation rows of the
   paper (including HOM) are derivable *)
let table1_log () =
  List.map Sqlir.Parser.parse
    [ "SELECT objid, ra FROM photoobj WHERE ra BETWEEN 100 AND 200";
      "SELECT objid FROM photoobj WHERE class = 'QSO'";
      "SELECT class, SUM(redshift) FROM photoobj GROUP BY class";
      "SELECT photoobj.objid, z FROM photoobj JOIN specobj ON photoobj.objid = specobj.objid";
      "SELECT objid FROM photoobj WHERE magnitude < 20 ORDER BY magnitude LIMIT 10";
      "SELECT class, COUNT(*) FROM photoobj GROUP BY class HAVING COUNT(*) > 3" ]

let table1 () =
  section "T1 / Table I: overview of query-distance measures (derived by the selector)";
  let profile = Dpe.Log_profile.of_log (table1_log ()) in
  let schemes = Dpe.Selector.select_all profile in
  let header =
    [ "Distance Measure"; "Log"; "DB-Content"; "Domains"; "Equivalence Notion";
      "c"; "EncRel"; "EncAttr"; "EncA.Const" ]
  in
  let widths = [ 34; 4; 11; 8; 24; 14; 7; 8; 24 ] in
  let print_row cells =
    List.iter2 (fun w c -> Format.printf "%-*s " w c) widths cells;
    Format.printf "@."
  in
  print_row header;
  hr ();
  let rows = List.map Dpe.Selector.table1_row schemes in
  List.iter print_row rows;
  let expected = Dpe.Selector.expected_table1 () in
  Format.printf "@.matches the paper's Table I: %s@."
    (if rows = expected then "PASS" else "FAIL");
  Format.printf "@.per-attribute detail of the two CryptDB-style rows:@.@.";
  List.iter
    (fun s ->
      if s.Dpe.Scheme.measure = M.Result || s.Dpe.Scheme.measure = M.Access then
        Format.printf "%a@." Dpe.Scheme.pp s)
    schemes

(* ---------------------------------------------------------------- *)
(* C1: Definition 1 — distance preservation                           *)
(* ---------------------------------------------------------------- *)

let scenarios = [ ("skyserver", `Sky); ("retail", `Retail) ]

let log_of scenario m ~n ~seed =
  let p = { Workload.Gen_query.n; templates = 4; seed;
            caps = Workload.Gen_query.caps_for_measure m } in
  match scenario with
  | `Sky -> Workload.Gen_query.skyserver_log p
  | `Retail -> Workload.Gen_query.retail_log p

let db_of scenario ~seed ~rows =
  match scenario with
  | `Sky -> Workload.Gen_db.skyserver ~seed ~rows
  | `Retail -> Workload.Gen_db.retail ~seed ~rows

let preserve () =
  section "C1 / Definition 1: d(Enc x, Enc y) = d(x, y), all measures x scenarios";
  Format.printf "%-12s %-10s %-7s %-9s %-14s %s@." "measure" "scenario" "pairs"
    "mean d" "max |dev|" "verdict";
  hr ();
  let all_ok = ref true in
  List.iter
    (fun (sname, scenario) ->
      List.iter
        (fun m ->
          let seed = "c1-" ^ sname in
          let log = log_of scenario m ~n:40 ~seed in
          let scheme = Dpe.Selector.select m (Dpe.Log_profile.of_log log) in
          let enc = Dpe.Encryptor.create keyring scheme in
          let plain_db, cipher_db =
            if m = M.Result then begin
              let db = db_of scenario ~seed ~rows:150 in
              (Some db, Some (Dpe.Db_encryptor.encrypt_database enc db))
            end
            else (None, None)
          in
          let r = Dpe.Verdict.check_dpe ?plain_db ?cipher_db enc m log in
          if not r.Dpe.Verdict.ok then all_ok := false;
          Format.printf "%-12s %-10s %-7d %-9.4f %-14g %s@." (M.to_string m)
            sname r.Dpe.Verdict.pairs r.Dpe.Verdict.mean_plain_distance
            r.Dpe.Verdict.max_deviation
            (if r.Dpe.Verdict.ok then "PRESERVED" else "VIOLATED"))
        M.extended)
    scenarios;
  Format.printf "@.C1 overall: %s@."
    (if !all_ok then "PASS" else "FAIL");
  Format.printf "(edit = token-level Levenshtein, our extension of Example 2)@."

(* ---------------------------------------------------------------- *)
(* C2: identical mining results                                       *)
(* ---------------------------------------------------------------- *)

let mining () =
  section "C2: mining results on plaintext and ciphertext are identical";
  Format.printf "%-12s %-10s %-9s %-10s %-9s %-9s %s@." "measure" "scenario"
    "dbscan" "k-medoids" "clink" "outliers" "ARI vs truth";
  hr ();
  let all_ok = ref true in
  List.iter
    (fun (sname, scenario) ->
      List.iter
        (fun m ->
          let seed = "c2-" ^ sname in
          let p = { Workload.Gen_query.n = 40; templates = 4; seed;
                    caps = Workload.Gen_query.caps_for_measure m } in
          let labelled =
            match scenario with
            | `Sky -> Workload.Gen_query.skyserver_log_labelled p
            | `Retail -> Workload.Gen_query.retail_log_labelled p
          in
          let truth = Array.of_list (List.map fst labelled) in
          let log = List.map snd labelled in
          let scheme = Dpe.Selector.select m (Dpe.Log_profile.of_log log) in
          let enc = Dpe.Encryptor.create keyring scheme in
          let plain_ctx, cipher_ctx =
            if m = M.Result then begin
              let db = db_of scenario ~seed ~rows:120 in
              (M.ctx_with_db db,
               M.ctx_with_db (Dpe.Db_encryptor.encrypt_database enc db))
            end
            else (M.default_ctx, M.default_ctx)
          in
          let dp = M.matrix plain_ctx m log in
          let dc =
            M.matrix cipher_ctx m (Dpe.Encryptor.encrypt_log enc log)
          in
          let same f = f dp = f dc in
          let db_ok =
            same (Mining.Dbscan.run { Mining.Dbscan.eps = 0.45; min_pts = 3 })
          in
          let km_ok =
            same (Mining.Kmedoids.run { Mining.Kmedoids.k = 4; max_iter = 40 })
          in
          let cl_ok = same (Mining.Hier.cut_k 4) in
          let out_ok = same (Mining.Outlier.run { Mining.Outlier.p = 0.95; d = 0.85 }) in
          if not (db_ok && km_ok && cl_ok && out_ok) then all_ok := false;
          let ari =
            Mining.Labeling.adjusted_rand_index truth (Mining.Hier.cut_k 4 dc)
          in
          let b ok = if ok then "same" else "DIFFER" in
          Format.printf "%-12s %-10s %-9s %-10s %-9s %-9s %.3f@." (M.to_string m)
            sname (b db_ok) (b km_ok) (b cl_ok) (b out_ok) ari)
        M.extended)
    scenarios;
  Format.printf "@.C2 overall: %s@." (if !all_ok then "PASS" else "FAIL")

(* ---------------------------------------------------------------- *)
(* C3: higher security than CryptDB                                   *)
(* ---------------------------------------------------------------- *)

let security () =
  section "C3: KIT-DPE schemes vs CryptDB onion steady state";
  (* the generated exploration log plus the aggregate-heavy queries of the
     Table I workload, so SUM-only and projection-only attributes (where
     §IV-C predicts the advantage) are present *)
  let log =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 60; templates = 5; seed = "c3";
        caps = Workload.Gen_query.caps_full }
    @ table1_log ()
  in
  let profile = Dpe.Log_profile.of_log log in
  let plan = Cryptdb.Planner.replay log in
  Format.printf "%-12s %-16s %-9s %-9s %-9s %s@." "measure" "attack rate"
    "better" "equal" "worse" "verdict";
  hr ();
  let all_ok = ref true in
  let attack_rate scheme =
    let enc = Dpe.Encryptor.create keyring scheme in
    let cipher = Dpe.Encryptor.encrypt_log enc log in
    let class_of a =
      Dpe.Scheme.ppe_of_const_class (Dpe.Scheme.class_for_attr scheme a)
    in
    (Attack.Harness.attack_log ~label:"" ~class_of ~plain:log ~cipher)
      .Attack.Harness.overall.Attack.Attacks.rate
  in
  List.iter
    (fun m ->
      let scheme = Dpe.Selector.select m profile in
      let cmp = Cryptdb.Baseline.compare_scheme ~profile scheme plan in
      let ok = cmp.Cryptdb.Baseline.worse = 0 in
      if not ok then all_ok := false;
      Format.printf "%-12s %-16.3f %-9d %-9d %-9d %s@." (M.to_string m)
        (attack_rate scheme) cmp.Cryptdb.Baseline.strictly_better
        cmp.Cryptdb.Baseline.equal cmp.Cryptdb.Baseline.worse
        (if ok then "NEVER WORSE" else "WORSE SOMEWHERE"))
    M.all;
  (* the CryptDB reference attack: constants sit at the exposed layers *)
  let result_scheme = Dpe.Selector.select M.Result profile in
  let enc = Dpe.Encryptor.create keyring result_scheme in
  let cipher = Dpe.Encryptor.encrypt_log enc log in
  let r =
    Attack.Harness.attack_log ~label:"cryptdb"
      ~class_of:(Cryptdb.Planner.exposed plan) ~plain:log ~cipher
  in
  Format.printf "%-12s %-16.3f (constants at CryptDB's exposed onion layers)@."
    "cryptdb" r.Attack.Harness.overall.Attack.Attacks.rate;
  let names =
    Attack.Harness.attack_names ~label:"names" ~plain:log ~cipher
  in
  Format.printf
    "@.name recovery (Example 3's other target; DET pseudonyms under every      scheme): %.3f@." names.Attack.Harness.overall.Attack.Attacks.rate;
  Format.printf "@.where the access-area scheme beats CryptDB, per attribute:@.";
  let access = Dpe.Selector.select M.Access profile in
  let cmp = Cryptdb.Baseline.compare_scheme ~profile access plan in
  List.iter
    (fun row ->
      if row.Cryptdb.Baseline.advantage > 0 then
        Format.printf "  %-14s KIT-DPE=%-8s CryptDB=%-8s (+%d security rows)@."
          row.Cryptdb.Baseline.attr
          (Dpe.Taxonomy.to_string row.Cryptdb.Baseline.kitdpe)
          (Dpe.Taxonomy.to_string row.Cryptdb.Baseline.cryptdb)
          row.Cryptdb.Baseline.advantage)
    cmp.Cryptdb.Baseline.rows;
  Format.printf "@.C3 overall: %s@." (if !all_ok then "PASS" else "FAIL")

(* ---------------------------------------------------------------- *)
(* P1: performance micro-benchmarks (Bechamel)                        *)
(* ---------------------------------------------------------------- *)

let run_bechamel tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  (* merged : measure-label -> (test-name -> OLS.t) *)
  Hashtbl.iter
    (fun _measure tbl ->
      let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl [] in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
            let pretty =
              if est > 1e6 then Printf.sprintf "%8.3f ms" (est /. 1e6)
              else if est > 1e3 then Printf.sprintf "%8.3f us" (est /. 1e3)
              else Printf.sprintf "%8.1f ns" est
            in
            Format.printf "  %-42s %s/op@." name pretty
          | _ -> Format.printf "  %-42s (no estimate)@." name)
        (List.sort compare rows))
    merged

let perf () =
  section "P1: performance micro-benchmarks";
  let open Bechamel in
  let rng = Crypto.Drbg.create ~seed:"perf" in
  let det = Crypto.Keyring.det keyring "perf-det" in
  let prob = Crypto.Keyring.prob keyring "perf-prob" in
  let ope = Crypto.Keyring.ope keyring "perf-ope" in
  let pub, _ = Crypto.Paillier.keygen ~bits:512 (Crypto.Drbg.create ~seed:"perf-p") in
  let msg = "a sixteen-byte-ish message for the scheme benchmarks" in
  let aes_key = Crypto.Aes128.expand (String.make 16 'k') in
  let block = String.make 16 'b' in
  let counter = ref 0 in
  let primitive_tests =
    Test.make_grouped ~name:"ppe-classes"
      [ Test.make ~name:"sha256 (64B)" (Staged.stage (fun () ->
            ignore (Crypto.Sha256.digest msg)));
        Test.make ~name:"aes128 block" (Staged.stage (fun () ->
            ignore (Crypto.Aes128.encrypt_block aes_key block)));
        Test.make ~name:"DET encrypt" (Staged.stage (fun () ->
            ignore (Crypto.Det.encrypt det msg)));
        Test.make ~name:"PROB encrypt" (Staged.stage (fun () ->
            ignore (Crypto.Prob.encrypt prob rng msg)));
        Test.make ~name:"OPE encrypt (32-bit domain)" (Staged.stage (fun () ->
            incr counter;
            ignore (Crypto.Ope.encrypt ope (!counter land 0xFFFFFF))));
        Test.make ~name:"HOM (Paillier-512) encrypt" (Staged.stage (fun () ->
            ignore (Crypto.Paillier.encrypt_int pub rng 12345))) ]
  in
  Format.printf "PPE primitive cost:@.";
  run_bechamel primitive_tests;

  (* Montgomery modular exponentiation (what Paillier uses); the division-
     based comparison lives in P2's modexp-stack rows *)
  let module N = Bignum.Bignat in
  let nrng = Crypto.Drbg.create ~seed:"mont" in
  let modulus =
    N.add (N.shift_left (N.random_bits (Crypto.Drbg.bytes_fn nrng) 1023) 1) N.one
  in
  let base_v = N.random_below (Crypto.Drbg.bytes_fn nrng) modulus in
  let expo = N.random_bits (Crypto.Drbg.bytes_fn nrng) 1024 in
  let ctx = Option.get (N.mont_create modulus) in
  Format.printf "@.modular exponentiation, 1024-bit modulus:@.";
  run_bechamel
    (Test.make_grouped ~name:"modexp"
       [ Test.make ~name:"mont_pow (Montgomery)"
           (Staged.stage (fun () -> ignore (N.mont_pow ctx base_v expo))) ]);

  (* per-measure distance computation, plaintext vs ciphertext *)
  let mlog m =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 20; templates = 3; seed = "perf";
        caps = Workload.Gen_query.caps_for_measure m }
  in
  let distance_tests =
    List.concat_map
      (fun m ->
        let log = mlog m in
        let scheme = Dpe.Selector.select m (Dpe.Log_profile.of_log log) in
        let enc = Dpe.Encryptor.create keyring scheme in
        let elog = Dpe.Encryptor.encrypt_log enc log in
        let ctx_p, ctx_c =
          if m = M.Result then begin
            let db = Workload.Gen_db.skyserver ~seed:"perf" ~rows:60 in
            (M.ctx_with_db db,
             M.ctx_with_db (Dpe.Db_encryptor.encrypt_database enc db))
          end
          else (M.default_ctx, M.default_ctx)
        in
        let q1 = List.nth log 0 and q2 = List.nth log 1 in
        let e1 = List.nth elog 0 and e2 = List.nth elog 1 in
        [ Test.make ~name:(M.to_string m ^ " distance, plaintext")
            (Staged.stage (fun () -> ignore (M.compute ctx_p m q1 q2)));
          Test.make ~name:(M.to_string m ^ " distance, ciphertext")
            (Staged.stage (fun () -> ignore (M.compute ctx_c m e1 e2))) ])
      M.all
  in
  Format.printf "@.per-pair distance computation:@.";
  run_bechamel (Test.make_grouped ~name:"distance" distance_tests);

  (* memoized result-distance matrix vs naive per-pair evaluation *)
  let rlog = mlog M.Result in
  let rdb = Workload.Gen_db.skyserver ~seed:"perf" ~rows:60 in
  let rctx = M.ctx_with_db rdb in
  Format.printf "@.result-distance matrix over %d queries:@." (List.length rlog);
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    (Unix.gettimeofday () -. t0) *. 1e3
  in
  let naive () =
    let qs = Array.of_list rlog in
    Array.init (Array.length qs) (fun i ->
        Array.init (Array.length qs) (fun j ->
            if i = j then 0.0 else M.compute rctx M.Result qs.(i) qs.(j)))
  in
  Format.printf "  per-pair evaluation: %7.1f ms@." (time naive);
  Format.printf "  memoized matrix:     %7.1f ms@."
    (time (fun () -> M.matrix rctx M.Result rlog));

  (* end-to-end log encryption throughput *)
  let log40 = mlog M.Structure in
  let scheme = Dpe.Selector.select M.Structure (Dpe.Log_profile.of_log log40) in
  let enc = Dpe.Encryptor.create keyring scheme in
  let e2e =
    Test.make_grouped ~name:"end-to-end"
      [ Test.make ~name:"encrypt 20-query log (structure scheme)"
          (Staged.stage (fun () -> ignore (Dpe.Encryptor.encrypt_log enc log40))) ]
  in
  Format.printf "@.end-to-end:@.";
  run_bechamel e2e;

  (* scaling of the full pipeline, wall-clock *)
  Format.printf "@.pipeline scaling (log size -> encrypt + distance matrix, structure):@.";
  List.iter
    (fun n ->
      let log = Workload.Gen_query.skyserver_log
          { Workload.Gen_query.n; templates = 4; seed = "scale";
            caps = Workload.Gen_query.caps_full } in
      let scheme = Dpe.Selector.select M.Structure (Dpe.Log_profile.of_log log) in
      let enc = Dpe.Encryptor.create keyring scheme in
      let t0 = Unix.gettimeofday () in
      let elog = Dpe.Encryptor.encrypt_log enc log in
      let t1 = Unix.gettimeofday () in
      ignore (M.matrix M.default_ctx M.Structure elog);
      let t2 = Unix.gettimeofday () in
      Format.printf "  n=%-4d encrypt %6.1f ms   %d-pair matrix %6.1f ms@." n
        ((t1 -. t0) *. 1e3) (n * (n - 1) / 2) ((t2 -. t1) *. 1e3))
    [ 25; 50; 100 ]

(* ---------------------------------------------------------------- *)
(* P2: perf trajectory — emits BENCH_PR<k>.json                       *)
(* ---------------------------------------------------------------- *)

(* Each entry compares a baseline implementation against the current
   optimized path for the same operation.  [identical] asserts the two
   paths computed the same answer (bit-for-bit for distance matrices and
   deterministic ciphers); probabilistic ciphers are compared
   sequential-vs-parallel under the per-row DRBG contract instead. *)
type perf_entry = {
  op : string;
  pe_n : int;
  pe_domains : int;
  baseline_ns : float;  (* ns per operation, baseline *)
  optimized_ns : float; (* ns per operation, PR-1 path *)
  identical : bool;
}

let pe_speedup e = e.baseline_ns /. e.optimized_ns

let time_best ?(reps = 3) f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

(* replica of the seed's sequential encrypt_table (per-value calls into
   the encryptor's shared DRBG, no memo) — the pre-PR baseline *)
let seed_encrypt_table enc table =
  let plain_schema = Minidb.Table.schema table in
  let names = Minidb.Schema.column_names plain_schema in
  let cipher_schema = Dpe.Db_encryptor.encrypt_schema enc plain_schema in
  Minidb.Table.map_rows
    (fun row ->
      Array.of_list
        (List.mapi
           (fun i name -> Dpe.Encryptor.encrypt_value enc ~attr:name row.(i))
           names))
    cipher_schema table

let seed_encrypt_database enc db =
  List.fold_left
    (fun acc t -> Minidb.Database.add_table acc (seed_encrypt_table enc t))
    Minidb.Database.empty (Minidb.Database.tables db)

let db_rows db =
  List.map
    (fun t -> (Minidb.Table.schema t, Minidb.Table.rows t))
    (Minidb.Database.tables db)

let perf_parallel () =
  section "P2: multicore & feature-cache trajectory";
  let domains = Parallel.Pool.default_domains () in
  let pool = Parallel.Pool.global () in
  Format.printf
    "recommended domains %d, pool size %d (override with KITDPE_DOMAINS)@.@."
    (Domain.recommended_domain_count ()) domains;
  let entries = ref [] in
  let push e = entries := e :: !entries in

  (* 1. distance matrices: the seed's sequential per-pair loop (every
     cell re-prints, re-lexes and re-extracts both queries with the
     per-pair definitions of [Reference], on a 1-lane pool) vs the
     current [Measure.matrix] path — per-query feature precomputation
     (Distance.Features), interned-int kernels and pooled row blocks *)
  let seq_pool = Parallel.Pool.create ~domains:1 () in
  List.iter
    (fun (m, n) ->
      let log =
        Workload.Gen_query.skyserver_log
          { Workload.Gen_query.n; templates = 4; seed = "p2-dm";
            caps = Workload.Gen_query.caps_for_measure m }
      in
      let qs = Array.of_list log in
      let d i j = Reference.compute M.default_ctx m qs.(i) qs.(j) in
      let seq = Mining.Dist_matrix.of_fun ~pool:seq_pool n d in
      let feat = M.matrix ~pool M.default_ctx m log in
      let t_seq = time_best (fun () -> Mining.Dist_matrix.of_fun ~pool:seq_pool n d) in
      let t_feat = time_best (fun () -> M.matrix ~pool M.default_ctx m log) in
      push
        { op = "dist_matrix/" ^ M.to_string m;
          pe_n = n; pe_domains = domains;
          baseline_ns = t_seq *. 1e9; optimized_ns = t_feat *. 1e9;
          identical = Mining.Dist_matrix.max_abs_diff seq feat = 0.0 })
    [ (M.Edit, 200); (M.Edit, 400); (M.Token, 300) ];
  Parallel.Pool.shutdown seq_pool;

  (* 1b. the feature-table win in isolation: both sides run on the same
     pool, baseline re-derives per pair ([Reference], the PR-4 path),
     optimized reads the precomputed table — so any speedup here is
     amortized tokenization + interned kernels, not parallelism *)
  List.iter
    (fun (m, n) ->
      let log =
        Workload.Gen_query.skyserver_log
          { Workload.Gen_query.n; templates = 4; seed = "p2-dm";
            caps = Workload.Gen_query.caps_for_measure m }
      in
      let qs = Array.of_list log in
      let d i j = Reference.compute M.default_ctx m qs.(i) qs.(j) in
      let per_pair = Mining.Dist_matrix.of_fun ~pool n d in
      let feat = M.matrix ~pool M.default_ctx m log in
      let t_pair = time_best (fun () -> Mining.Dist_matrix.of_fun ~pool n d) in
      let t_feat = time_best (fun () -> M.matrix ~pool M.default_ctx m log) in
      push
        { op = "dist_matrix/" ^ M.to_string m ^ "/features";
          pe_n = n; pe_domains = domains;
          baseline_ns = t_pair *. 1e9; optimized_ns = t_feat *. 1e9;
          identical = Mining.Dist_matrix.max_abs_diff per_pair feat = 0.0 })
    [ (M.Edit, 200); (M.Token, 300) ];

  (* 1c. the edit kernel alone: classic one-row DP vs the Myers
     bit-parallel kernel on identical interned-int sequences (lengths
     straddle the 62-bit block boundary).  The DP is the reference
     kernel, monomorphic on int symbols, kept here rather than in the
     library, which runs only Myers. *)
  let levenshtein_ints (a : int array) (b : int array) =
    let n = Array.length a and m = Array.length b in
    if n = 0 then m
    else if m = 0 then n
    else begin
      let prev = Array.init (m + 1) Fun.id in
      let cur = Array.make (m + 1) 0 in
      for i = 1 to n do
        cur.(0) <- i;
        let ai = Array.unsafe_get a (i - 1) in
        for j = 1 to m do
          let cost = if ai = Array.unsafe_get b (j - 1) then 0 else 1 in
          let del = Array.unsafe_get prev j + 1 in
          let ins = Array.unsafe_get cur (j - 1) + 1 in
          let sub = Array.unsafe_get prev (j - 1) + cost in
          Array.unsafe_set cur j (min (min ins del) sub)
        done;
        Array.blit cur 0 prev 0 (m + 1)
      done;
      prev.(m)
    end
  in
  let lev_pairs = 64 in
  let lrng = Crypto.Drbg.create ~seed:"p2-lev" in
  let lev_alphabet = 48 in
  let rand_seq () =
    Array.init
      (64 + Crypto.Drbg.uniform_int lrng 96)
      (fun _ -> Crypto.Drbg.uniform_int lrng lev_alphabet)
  in
  let lev_inputs = Array.init lev_pairs (fun _ -> (rand_seq (), rand_seq ())) in
  let myers (a, b) = Distance.D_edit.myers ~alphabet:lev_alphabet a b in
  let dp (a, b) = levenshtein_ints a b in
  let dp_dists = Array.map dp lev_inputs in
  let my_dists = Array.map myers lev_inputs in
  let t_dp = time_best (fun () -> Array.map dp lev_inputs) in
  let t_my = time_best (fun () -> Array.map myers lev_inputs) in
  push
    { op = "levenshtein/myers";
      pe_n = lev_pairs; pe_domains = 1;
      baseline_ns = t_dp *. 1e9 /. float_of_int lev_pairs;
      optimized_ns = t_my *. 1e9 /. float_of_int lev_pairs;
      identical = dp_dists = my_dists };

  (* 2. bulk database encryption: seed's per-value sequential loop vs the
     chunked pooled path with DET/OPE memos and per-row DRBGs *)
  let dblog =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 30; templates = 4; seed = "p2-db";
        caps = Workload.Gen_query.caps_for_measure M.Result }
  in
  let dbscheme = Dpe.Selector.select M.Result (Dpe.Log_profile.of_log dblog) in
  let rows = 800 in
  let db = Workload.Gen_db.skyserver ~seed:"p2-db" ~rows in
  let total_rows =
    List.fold_left
      (fun acc t -> acc + Minidb.Table.cardinality t)
      0 (Minidb.Database.tables db)
  in
  let t_base =
    time_best ~reps:2 (fun () ->
        seed_encrypt_database (Dpe.Encryptor.create keyring dbscheme) db)
  in
  let t_par =
    time_best ~reps:2 (fun () ->
        Dpe.Db_encryptor.encrypt_database ~pool
          (Dpe.Encryptor.create keyring dbscheme) db)
  in
  let identical =
    let seq_pool = Parallel.Pool.create ~domains:1 () in
    let a =
      Dpe.Db_encryptor.encrypt_database ~pool:seq_pool
        (Dpe.Encryptor.create keyring dbscheme) db
    in
    let b =
      Dpe.Db_encryptor.encrypt_database ~pool
        (Dpe.Encryptor.create keyring dbscheme) db
    in
    Parallel.Pool.shutdown seq_pool;
    db_rows a = db_rows b
  in
  push
    { op = "encrypt_database/skyserver";
      pe_n = total_rows; pe_domains = domains;
      baseline_ns = t_base *. 1e9; optimized_ns = t_par *. 1e9; identical };

  (* 3. the modexp stack: the seed's division-based square-and-multiply
     (kept as [Bignat.mod_pow_binary]) vs CIOS Montgomery with a fixed
     window.  [mont_pow_w*] isolates the window gain by comparing the
     bit-at-a-time Montgomery ladder against the windowed one on the
     same context (512-bit exponents select w=4, 1024-bit w=5). *)
  let module Bn = Bignum.Bignat in
  let brng = Crypto.Drbg.bytes_fn (Crypto.Drbg.create ~seed:"p2-modexp") in
  let modexp_case bits =
    let m = Bn.add (Bn.shift_left Bn.one (bits - 1)) (Bn.random_bits brng (bits - 1)) in
    let m = if Bn.is_even m then Bn.add m Bn.one else m in
    (m, Bn.random_below brng m, Bn.random_bits brng bits)
  in
  List.iter
    (fun bits ->
      let m, b, e = modexp_case bits in
      let t_naive = time_best (fun () -> Bn.mod_pow_binary b e m) in
      let t_mont = time_best (fun () -> Bn.mod_pow b e m) in
      push
        { op = Printf.sprintf "bignum/modexp/%d" bits;
          pe_n = bits; pe_domains = 1;
          baseline_ns = t_naive *. 1e9; optimized_ns = t_mont *. 1e9;
          identical = Bn.equal (Bn.mod_pow_binary b e m) (Bn.mod_pow b e m) })
    [ 512; 1024 ];
  List.iter
    (fun (opname, bits) ->
      let m, b, e = modexp_case bits in
      let ctx = Option.get (Bn.mont_create m) in
      let t_bin = time_best (fun () -> Bn.mont_pow_binary ctx b e) in
      let t_win = time_best (fun () -> Bn.mont_pow ctx b e) in
      push
        { op = opname; pe_n = bits; pe_domains = 1;
          baseline_ns = t_bin *. 1e9; optimized_ns = t_win *. 1e9;
          identical = Bn.equal (Bn.mont_pow_binary ctx b e) (Bn.mont_pow ctx b e) })
    [ ("bignum/mont_pow_w4", 512); ("bignum/mont_pow_w5", 1024) ];

  (* 4. Paillier end to end at 512-bit keys.  The encrypt baseline
     replicates the seed implementation through the public API — same
     randomness stream, division-based modexp — so the identity check is
     bit-for-bit.  The decrypt baseline measures the seed's lambda path:
     one division-based modexp of a lambda-sized exponent mod n²
     (lambda itself is private, but the binary ladder's schedule depends
     only on the exponent's bit length, so a same-length stand-in costs
     the same); the identity check compares the real lambda and CRT
     decryptions instead. *)
  let ppub, psec =
    Crypto.Paillier.keygen ~bits:512 (Crypto.Drbg.create ~seed:"p2-paillier")
  in
  let pn = Crypto.Paillier.modulus ppub in
  let pn2 = Bn.mul pn pn in
  let naive_unit rng =
    let rng_fn = Crypto.Drbg.bytes_fn rng in
    let rec go () =
      let r = Bn.random_below rng_fn pn in
      if Bn.is_zero r || not (Bn.equal (Bn.gcd r pn) Bn.one) then go () else r
    in
    go ()
  in
  let naive_encrypt rng m =
    let rn = Bn.mod_pow_binary (naive_unit rng) pn pn2 in
    let gm = Bn.rem (Bn.add Bn.one (Bn.mul m pn)) pn2 in
    Bn.rem (Bn.mul gm rn) pn2
  in
  let enc_k = 8 in
  let msgs = Array.init enc_k (fun i -> Bn.of_int (1000 + i)) in
  let run_enc f = Array.map f msgs in
  let t_enc_base =
    time_best (fun () ->
        let rng = Crypto.Drbg.create ~seed:"p2-enc" in
        run_enc (naive_encrypt rng))
  in
  let t_enc_opt =
    time_best (fun () ->
        let rng = Crypto.Drbg.create ~seed:"p2-enc" in
        run_enc (Crypto.Paillier.encrypt ppub rng))
  in
  let enc_identical =
    let a =
      let rng = Crypto.Drbg.create ~seed:"p2-enc" in
      run_enc (naive_encrypt rng)
    in
    let b =
      let rng = Crypto.Drbg.create ~seed:"p2-enc" in
      run_enc (Crypto.Paillier.encrypt ppub rng)
    in
    Array.for_all2 Bn.equal a b
  in
  push
    { op = "paillier/encrypt";
      pe_n = enc_k; pe_domains = 1;
      baseline_ns = t_enc_base *. 1e9 /. float_of_int enc_k;
      optimized_ns = t_enc_opt *. 1e9 /. float_of_int enc_k;
      identical = enc_identical };

  (* warm-pool encryption: the pool entry is consumed per call, so fills
     run untimed inside each rep and only the request path is clocked *)
  let pool_k = 32 in
  let pool_labels = Array.init pool_k (Printf.sprintf "bench/%d") in
  let label_rng k = Crypto.Drbg.create ~seed:("p2-pool/" ^ k) in
  let pooled_run pl =
    Array.map
      (fun k ->
        Crypto.Paillier.encrypt_pooled ?pool:pl ppub ~key:k (label_rng k)
          (Bn.of_int 7))
      pool_labels
  in
  let filled_pool () =
    let pl = Crypto.Paillier.pool_create () in
    Array.iter
      (fun k -> Crypto.Paillier.noise_fill pl ppub ~key:k (label_rng k))
      pool_labels;
    pl
  in
  let t_pooled =
    let best = ref infinity in
    for _ = 1 to 3 do
      let pl = filled_pool () in
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (pooled_run (Some pl)));
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let t_unpooled = time_best (fun () -> pooled_run None) in
  push
    { op = "paillier/encrypt_pooled";
      pe_n = pool_k; pe_domains = 1;
      baseline_ns = t_unpooled *. 1e9 /. float_of_int pool_k;
      optimized_ns = t_pooled *. 1e9 /. float_of_int pool_k;
      identical =
        Array.for_all2 Bn.equal (pooled_run (Some (filled_pool ()))) (pooled_run None) };

  let dec_k = 8 in
  let cts =
    Array.init dec_k (fun i ->
        Crypto.Paillier.encrypt ppub
          (Crypto.Drbg.create ~seed:(Printf.sprintf "p2-dec%d" i))
          (Bn.of_int (1 + (i * 17))))
  in
  let lam_dec () = Array.map (Crypto.Paillier.decrypt_lambda psec) cts in
  let crt_dec () = Array.map (Crypto.Paillier.decrypt psec) cts in
  let fake_lambda = Bn.add (Bn.shift_left Bn.one 511) (Bn.random_bits brng 511) in
  let t_dec_base =
    time_best (fun () -> Array.map (fun c -> Bn.mod_pow_binary c fake_lambda pn2) cts)
  in
  let t_dec_lambda = time_best lam_dec in
  let t_dec_crt = time_best crt_dec in
  let dec_identical = Array.for_all2 Bn.equal (lam_dec ()) (crt_dec ()) in
  push
    { op = "paillier/decrypt";
      pe_n = dec_k; pe_domains = 1;
      baseline_ns = t_dec_base *. 1e9 /. float_of_int dec_k;
      optimized_ns = t_dec_crt *. 1e9 /. float_of_int dec_k;
      identical = dec_identical };
  (* the CRT gain in isolation: against the already-Montgomery lambda path *)
  push
    { op = "paillier/decrypt_crt";
      pe_n = dec_k; pe_domains = 1;
      baseline_ns = t_dec_lambda *. 1e9 /. float_of_int dec_k;
      optimized_ns = t_dec_crt *. 1e9 /. float_of_int dec_k;
      identical = dec_identical };

  let ca = cts.(0) in
  let t_add_base =
    time_best (fun () -> Array.map (fun c -> Bn.rem (Bn.mul ca c) pn2) cts)
  in
  let t_add_opt = time_best (fun () -> Array.map (Crypto.Paillier.add ppub ca) cts) in
  push
    { op = "paillier/hom_add";
      pe_n = dec_k; pe_domains = 1;
      baseline_ns = t_add_base *. 1e9 /. float_of_int dec_k;
      optimized_ns = t_add_opt *. 1e9 /. float_of_int dec_k;
      identical =
        Array.for_all2 Bn.equal
          (Array.map (fun c -> Bn.rem (Bn.mul ca c) pn2) cts)
          (Array.map (Crypto.Paillier.add ppub ca) cts) };
  let k_scalar = 1000 in
  let t_smul_base =
    time_best (fun () ->
        Array.map (fun c -> Bn.mod_pow_binary c (Bn.of_int k_scalar) pn2) cts)
  in
  let t_smul_opt =
    time_best (fun () ->
        Array.map (fun c -> Crypto.Paillier.scalar_mul ppub c k_scalar) cts)
  in
  push
    { op = "paillier/scalar_mul";
      pe_n = dec_k; pe_domains = 1;
      baseline_ns = t_smul_base *. 1e9 /. float_of_int dec_k;
      optimized_ns = t_smul_opt *. 1e9 /. float_of_int dec_k;
      identical =
        Array.for_all2 Bn.equal
          (Array.map (fun c -> Bn.mod_pow_binary c (Bn.of_int k_scalar) pn2) cts)
          (Array.map (fun c -> Crypto.Paillier.scalar_mul ppub c k_scalar) cts) };

  (* 5. encrypt_database over a HOM column — the tentpole target.  The
     baseline replays the seed's sequential per-value loop with
     division-based Paillier on every HOM cell (same per-cell DRBG, so
     the ciphertexts are bit-identical); the optimized path prewarms the
     noise pool across the lanes and only assembles on the request
     path. *)
  let hom_q =
    match
      Sqlir.Parser.parse_result
        "SELECT class, SUM(redshift) AS total FROM photoobj GROUP BY class"
    with
    | Ok q -> q
    | Error e -> failwith e
  in
  let hom_scheme = Dpe.Selector.select M.Result (Dpe.Log_profile.of_log (hom_q :: dblog)) in
  let hom_rows = 32 in
  let hom_db = Workload.Gen_db.skyserver ~seed:"p2-hom" ~rows:hom_rows in
  let naive_hom_database enc db =
    let epub, _ = Dpe.Encryptor.paillier enc in
    let en = Crypto.Paillier.modulus epub in
    let en2 = Bn.mul en en in
    let hom_cell ~rel ~row ~attr v =
      let cell_rng = Dpe.Encryptor.hom_noise_rng enc (Dpe.Encryptor.hom_cell_key ~rel ~row ~attr) in
      let r =
        let rng_fn = Crypto.Drbg.bytes_fn cell_rng in
        let rec go () =
          let r = Bn.random_below rng_fn en in
          if Bn.is_zero r || not (Bn.equal (Bn.gcd r en) Bn.one) then go () else r
        in
        go ()
      in
      let m = if v >= 0 then Bn.of_int v else Bn.sub en (Bn.of_int (-v)) in
      let rn = Bn.mod_pow_binary r en en2 in
      let gm = Bn.rem (Bn.add Bn.one (Bn.mul m en)) en2 in
      Minidb.Value.Vstring
        (Crypto.Hex.encode (Crypto.Paillier.serialize (Bn.rem (Bn.mul gm rn) en2)))
    in
    List.fold_left
      (fun acc t ->
        let plain_schema = Minidb.Table.schema t in
        let rel = plain_schema.Minidb.Schema.rel in
        let names = Minidb.Schema.column_names plain_schema in
        let cipher_schema = Dpe.Db_encryptor.encrypt_schema enc plain_schema in
        let row_i = ref (-1) in
        let ct =
          Minidb.Table.map_rows
            (fun row ->
              incr row_i;
              Array.of_list
                (List.mapi
                   (fun i name ->
                     match Dpe.Scheme.class_for_attr hom_scheme name, row.(i) with
                     | Dpe.Scheme.C_hom, Minidb.Value.Vint v ->
                       hom_cell ~rel ~row:!row_i ~attr:name v
                     | _ -> Dpe.Encryptor.encrypt_value enc ~attr:name row.(i))
                   names))
            cipher_schema t
        in
        Minidb.Database.add_table acc ct)
      Minidb.Database.empty (Minidb.Database.tables db)
  in
  let t_hom_base =
    time_best ~reps:2 (fun () ->
        naive_hom_database (Dpe.Encryptor.create keyring hom_scheme) hom_db)
  in
  let t_hom_opt =
    time_best ~reps:2 (fun () ->
        let enc = Dpe.Encryptor.create keyring hom_scheme in
        assert (snd (Dpe.Db_encryptor.prewarm_hom_noise_r ~pool enc hom_db) = []);
        Dpe.Db_encryptor.encrypt_database ~pool enc hom_db)
  in
  let hom_identical =
    (* pool off, sequential vs prewarmed multi-domain — and the naive
       replica's HOM cells agree bit-for-bit with the pooled path *)
    let seq_pool = Parallel.Pool.create ~domains:1 () in
    let a =
      Dpe.Db_encryptor.encrypt_database ~pool:seq_pool
        (Dpe.Encryptor.create keyring hom_scheme) hom_db
    in
    Parallel.Pool.shutdown seq_pool;
    let enc = Dpe.Encryptor.create keyring hom_scheme in
    assert (snd (Dpe.Db_encryptor.prewarm_hom_noise_r ~pool enc hom_db) = []);
    let b = Dpe.Db_encryptor.encrypt_database ~pool enc hom_db in
    let naive_hom_rows =
      List.concat_map
        (fun t ->
          let rel = (Minidb.Table.schema t).Minidb.Schema.rel in
          let names = Minidb.Schema.column_names (Minidb.Table.schema t) in
          List.concat
            (List.mapi
               (fun r row ->
                 List.filteri
                   (fun i _ ->
                     Dpe.Scheme.class_for_attr hom_scheme (List.nth names i)
                     = Dpe.Scheme.C_hom)
                   (Array.to_list row)
                 |> List.map (fun v -> (rel, r, v)))
               (Minidb.Table.rows t)))
    in
    db_rows a = db_rows b
    && naive_hom_rows (Minidb.Database.tables (naive_hom_database (Dpe.Encryptor.create keyring hom_scheme) hom_db))
       = naive_hom_rows (Minidb.Database.tables b)
  in
  let hom_cells =
    hom_rows
    (* photoobj has one HOM attribute (redshift); specobj has none *)
  in
  push
    { op = "encrypt_database/hom";
      pe_n = hom_cells; pe_domains = domains;
      baseline_ns = t_hom_base *. 1e9; optimized_ns = t_hom_opt *. 1e9;
      identical = hom_identical };

  (* 3. OPE memo: cold tree descents vs cache hits, same key *)
  let ope = Crypto.Keyring.ope keyring "p2-ope" in
  let orng = Crypto.Drbg.create ~seed:"p2-ope" in
  let n_ope = 2000 in
  let vals = Array.init n_ope (fun _ -> Crypto.Drbg.uniform_int orng (1 lsl 24)) in
  let t_cold =
    time_best (fun () ->
        Crypto.Ope.cache_clear ope;
        Array.iter (fun v -> ignore (Crypto.Ope.encrypt ope v)) vals)
  in
  let cold = Array.map (Crypto.Ope.encrypt ope) vals in
  let t_hot =
    time_best (fun () ->
        Array.iter (fun v -> ignore (Crypto.Ope.encrypt ope v)) vals)
  in
  let hot = Array.map (Crypto.Ope.encrypt ope) vals in
  push
    { op = "ope_encrypt/memo";
      pe_n = n_ope; pe_domains = 1;
      baseline_ns = t_cold *. 1e9 /. float_of_int n_ope;
      optimized_ns = t_hot *. 1e9 /. float_of_int n_ope;
      identical = cold = hot };

  let entries = List.rev !entries in
  Format.printf "%-28s %-7s %-8s %-14s %-14s %-9s %s@." "op" "n" "domains"
    "baseline" "optimized" "speedup" "identical";
  hr ();
  let pretty ns =
    if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  List.iter
    (fun e ->
      Format.printf "%-28s %-7d %-8d %-14s %-14s %-9.2f %b@." e.op e.pe_n
        e.pe_domains (pretty e.baseline_ns) (pretty e.optimized_ns)
        (pe_speedup e) e.identical)
    entries;
  entries

(* P3: indexes.  Each range row compares the brute-force neighbor
   scan (n-1 exact predicate probes per query) against the index that
   [Index.Vp_tree.build] picks on a sampled query set, with [identical]
   asserting equal neighbor sets.  Every row keeps its [index/vp_*] name
   so [--compare] lines up with older snapshots, but none runs a
   VP-tree: the edit rows run the BK-tree and the token rows the prefix
   filter.
   Probe counts ride along as their own rows (op suffix "/probes"): the
   two ns fields carry {e probe counts per query}, baseline = n-1 and
   optimized = the index's mean, so sub-linearity is visible in the same
   trajectory table as the timings.  Templates scale with n (constant
   cluster size) and eps stays at near-duplicate radius — the regime the
   indexes are built for. *)
let perf_index () =
  section "P3: sub-quadratic neighbor search (metric indexes)";
  let domains = Parallel.Pool.default_domains () in
  let pool = Parallel.Pool.global () in
  let entries = ref [] in
  let push e = entries := e :: !entries in
  let eps = 0.1 in
  let n_sample = 64 in
  let space_of kind m n =
    let log =
      Workload.Gen_query.skyserver_log
        { Workload.Gen_query.n; templates = max 4 (n / 50); seed = "p3-index";
          caps = Workload.Gen_query.caps_for_measure m }
    in
    Index.Space.of_kind kind (Distance.Features.build ~pool (Array.of_list log))
  in
  let brute sp q =
    let acc = ref [] in
    for j = Index.Space.size sp - 1 downto 0 do
      if j <> q && Index.Space.within sp ~eps q j then acc := j :: !acc
    done;
    !acc
  in
  let sampled n = Array.init n_sample (fun i -> i * n / n_sample) in

  (* 1. index eps-range vs brute force *)
  List.iter
    (fun (kind, mname, n) ->
      let m =
        match kind with
        | Index.Space.Edit -> M.Edit
        | Index.Space.Token -> M.Token
        | Index.Space.Structure -> M.Structure
        | Index.Space.Clause -> M.Clause
      in
      let sp = space_of kind m n in
      let tree = Index.Vp_tree.build ~pool ~seed:"p3" sp in
      let queries = sampled n in
      let brute_sets = Array.map (brute sp) queries in
      let vp_sets = Array.map (Index.Vp_tree.range tree ~eps) queries in
      let identical = brute_sets = vp_sets in
      let t_brute =
        time_best ~reps:2 (fun () -> Array.map (brute sp) queries)
      in
      let t_vp =
        time_best ~reps:2 (fun () ->
            Array.map (Index.Vp_tree.range tree ~eps) queries)
      in
      let per_q t = t *. 1e9 /. float_of_int n_sample in
      push
        { op = "index/vp_range/" ^ mname;
          pe_n = n; pe_domains = domains;
          baseline_ns = per_q t_brute; optimized_ns = per_q t_vp; identical };
      let probes =
        Array.fold_left
          (fun acc q ->
            let _, st = Index.Vp_tree.range_stats tree ~eps q in
            acc + st.Index.Vp_tree.probes)
          0 queries
      in
      push
        { op = "index/vp_probes/" ^ mname;
          pe_n = n; pe_domains = domains;
          baseline_ns = float_of_int (n - 1);
          optimized_ns = float_of_int probes /. float_of_int n_sample;
          identical })
    [ (Index.Space.Edit, "edit", 1000);
      (Index.Space.Edit, "edit", 10000);
      (Index.Space.Token, "token", 1000) ];

  (* 2. DBSCAN end-to-end: brute-force neighbor scans vs the index
     engine, identical labels, on the token space *)
  let n_db = 1000 in
  let sp_db = space_of Index.Space.Token M.Token n_db in
  let vp = Index.Vp_tree.build ~pool ~seed:"p3" sp_db in
  let scans = { Mining.Dbscan.ri_n = n_db; range = brute sp_db } in
  let ri =
    { Mining.Dbscan.ri_n = n_db;
      range = (fun i -> Index.Vp_tree.range vp ~eps i) }
  in
  let l_scans = Mining.Dbscan.run_index ~min_pts:3 scans in
  let l_index = Mining.Dbscan.run_index ~min_pts:3 ri in
  let t_scans =
    time_best ~reps:2 (fun () -> Mining.Dbscan.run_index ~min_pts:3 scans)
  in
  let t_index =
    time_best ~reps:2 (fun () -> Mining.Dbscan.run_index ~min_pts:3 ri)
  in
  push
    { op = "mining/dbscan_index";
      pe_n = n_db; pe_domains = domains;
      baseline_ns = t_scans *. 1e9; optimized_ns = t_index *. 1e9;
      identical = l_scans = l_index };

  let entries = List.rev !entries in
  Format.printf "%-28s %-7s %-8s %-14s %-14s %-9s %s@." "op" "n" "domains"
    "baseline" "optimized" "speedup" "identical";
  hr ();
  let pretty ns =
    if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  List.iter
    (fun e ->
      let is_probes =
        List.exists
          (fun s -> s = "probes" || s = "vp_probes" || s = "bk_probes")
          (String.split_on_char '/' e.op)
      in
      let show v = if is_probes then Printf.sprintf "%.0f probes" v else pretty v in
      Format.printf "%-28s %-7d %-8d %-14s %-14s %-9.2f %b@." e.op e.pe_n
        e.pe_domains (show e.baseline_ns) (show e.optimized_ns)
        (pe_speedup e) e.identical)
    entries;
  entries

let emit_perf_json ~metrics path entries =
  let module J = Obs.Json in
  let int = J.int and str s = J.Str s in
  (* GC counters at emit time: how much allocator pressure the whole
     bench run generated on this host *)
  let gc = Gc.quick_stat () in
  let result e =
    J.Obj
      [ ("op", str e.op); ("n", int e.pe_n); ("domains", int e.pe_domains);
        ("baseline_ns_per_op", J.Num (Float.round e.baseline_ns));
        ("ns_per_op", J.Num (Float.round e.optimized_ns));
        ("speedup", J.Num (Float.round (pe_speedup e *. 1e3) /. 1e3));
        ("identical", J.Bool e.identical) ]
  in
  let oc = open_out path in
  output_string oc
    (J.to_string
       (J.Obj
          [ ("pr", int 10); ("bench", str "perf --json");
            (* host metadata, so a snapshot from a single-CPU runner is
               self-describing next to one from a many-core box *)
            ("ocaml_version", str Sys.ocaml_version);
            ("os_type", str Sys.os_type);
            ("word_size", int Sys.word_size);
            ("host_cpus", int (Domain.recommended_domain_count ()));
            ("recommended_domain_count", int (Domain.recommended_domain_count ()));
            ("pool_domains", int (Parallel.Pool.default_domains ()));
            ("kitdpe_domains_env",
             Option.fold ~none:J.Null ~some:str
               (Sys.getenv_opt "KITDPE_DOMAINS"));
            ("unix_time", J.Num (Unix.time ()));
            ("gc_minor_collections", int gc.Gc.minor_collections);
            ("gc_major_collections", int gc.Gc.major_collections);
            ("gc_heap_words", int gc.Gc.heap_words);
            ("gc_promoted_words", J.Num gc.Gc.promoted_words);
            ("results", J.Arr (List.map result entries));
            ("metrics", metrics) ]));
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote %s@." path

(* ---------------------------------------------------------------- *)
(* A1: ablation — uniform-split OPE vs Boldyreva-style HGD OPE        *)
(* ---------------------------------------------------------------- *)

let ablation_ope () =
  section "A1 (ablation): uniform-split OPE vs hypergeometric (Boldyreva-style) OPE";
  let bits = 12 in
  let uni =
    Crypto.Ope.create ~master:"ablate" ~purpose:"uni"
      { Crypto.Ope.plain_bits = bits; cipher_bits = 2 * bits }
  in
  let hgd =
    Ablation.Ope_hgd.create ~master:"ablate" ~purpose:"hgd"
      { Ablation.Ope_hgd.plain_bits = bits; cipher_bits = 2 * bits }
  in
  let n = 1 lsl bits in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int n)
  in
  let cu, tu = time (fun () -> Array.init n (Crypto.Ope.encrypt uni)) in
  let ch, th = time (fun () -> Array.init n (Ablation.Ope_hgd.encrypt hgd)) in
  let monotone a = Array.for_all Fun.id (Array.init (n - 1) (fun i -> a.(i) < a.(i + 1))) in
  Format.printf "  %-22s %-12s %-12s@." "" "uniform" "hgd";
  Format.printf "  %-22s %-12s %-12s@." "strictly monotone"
    (string_of_bool (monotone cu)) (string_of_bool (monotone ch));
  Format.printf "  %-22s %-12.1f %-12.1f@." "us per encryption" tu th;
  (* ciphertext gap statistics: both should look like a random monotone
     injection into the same range *)
  let gap_stats a =
    let gaps = Array.init (n - 1) (fun i -> float_of_int (a.(i + 1) - a.(i))) in
    let mean = Array.fold_left ( +. ) 0.0 gaps /. float_of_int (n - 1) in
    let var =
      Array.fold_left (fun acc g -> acc +. ((g -. mean) ** 2.0)) 0.0 gaps
      /. float_of_int (n - 1)
    in
    (mean, sqrt var)
  in
  let mu, su = gap_stats cu and mh, sh = gap_stats ch in
  Format.printf "  %-22s %-12.2f %-12.2f@." "mean ciphertext gap" mu mh;
  Format.printf "  %-22s %-12.2f %-12.2f@." "gap std deviation" su sh;
  (* leakage: the sorting attack performs identically against both, because
     both leak exactly order + equality *)
  let rng = Crypto.Drbg.create ~seed:"ablate-ope" in
  let plains =
    List.init 2000 (fun _ -> Crypto.Drbg.uniform_int rng n)
    |> List.map (fun v -> Minidb.Value.Vint v)
  in
  let aux = Attack.Aux_model.of_values plains in
  let rate enc_fn =
    let pairs =
      List.map
        (fun p -> match p with
           | Minidb.Value.Vint v -> (p, Minidb.Value.Vint (enc_fn v))
           | _ -> assert false)
        plains
    in
    (Attack.Attacks.for_class Dpe.Taxonomy.OPE aux pairs).Attack.Attacks.rate
  in
  Format.printf "  %-22s %-12.3f %-12.3f@." "sorting-attack rate"
    (rate (Crypto.Ope.encrypt uni)) (rate (Ablation.Ope_hgd.encrypt hgd));
  Format.printf
    "@.Both samplers leak exactly order+equality (identical attack rates).@.";
  Format.printf
    "The HGD gap deviation tracks the random-injection ideal (~mean), while@.";
  Format.printf
    "the uniform splitter is burstier but ~%.0fx faster — the trade recorded@."
    (th /. tu);
  Format.printf "in DESIGN.md's substitution note.@."

(* ---------------------------------------------------------------- *)
(* A2: ablation — sensitivity of access-area distance to x            *)
(* ---------------------------------------------------------------- *)

let ablation_x () =
  section "A2 (ablation): Definition 5's partial-overlap weight x";
  let log =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 40; templates = 4; seed = "a2";
        caps = Workload.Gen_query.caps_full }
  in
  let scheme = Dpe.Selector.select M.Access (Dpe.Log_profile.of_log log) in
  let enc = Dpe.Encryptor.create keyring scheme in
  let reference = ref None in
  Format.printf "%-6s %-10s %-14s %-18s %s@." "x" "mean d" "max |dev|"
    "clusters (k=4)" "ARI vs x=0.5 clustering";
  hr ();
  List.iter
    (fun x ->
      let r = Dpe.Verdict.check_dpe ~x enc M.Access log in
      let dm = M.matrix { M.db = None; x } M.Access log in
      let labels = Mining.Hier.cut_k 4 dm in
      let ari =
        match !reference with
        | None ->
          reference := Some labels;
          1.0
        | Some ref_labels -> Mining.Labeling.adjusted_rand_index ref_labels labels
      in
      Format.printf "%-6.2f %-10.4f %-14g %-18d %.3f@." x
        r.Dpe.Verdict.mean_plain_distance r.Dpe.Verdict.max_deviation
        (List.length
           (List.sort_uniq compare (Array.to_list labels)))
        ari)
    [ 0.5; 0.1; 0.25; 0.75; 0.9 ];
  Format.printf
    "@.Preservation is exact for every x (the scheme never depends on x);@.";
  Format.printf
    "clusterings drift only mildly, so the paper's default x = 0.5 is not@.";
  Format.printf "load-bearing.@."

(* ---------------------------------------------------------------- *)
(* A3: §V future work — association rules over encrypted logs         *)
(* ---------------------------------------------------------------- *)

let rules () =
  section "A3 (§V future work): association-rule mining over the encrypted log";
  let log =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 50; templates = 3; seed = "a3";
        caps = Workload.Gen_query.caps_full }
  in
  let scheme = Dpe.Selector.select M.Token (Dpe.Log_profile.of_log log) in
  let enc = Dpe.Encryptor.create keyring scheme in
  (* transactions over CONTENT tokens only (identifiers and constants):
     keywords and punctuation are shared by almost every query and would
     drown the rules in trivia *)
  let content_tokens q =
    Sqlir.Lexer.tokenize (Sqlir.Printer.to_string q)
    |> List.filter_map (function
        | Sqlir.Lexer.Kw _ | Sqlir.Lexer.Sym _ -> None
        | t -> Some (Sqlir.Lexer.token_to_string t))
    |> List.sort_uniq String.compare
  in
  let transactions l = List.map content_tokens l in
  let params =
    { Mining.Apriori.min_support = 0.25; min_confidence = 0.8; max_size = 3 }
  in
  let plain_rules = Mining.Apriori.rules params (transactions log) in
  let cipher_rules =
    Mining.Apriori.rules params (transactions (Dpe.Encryptor.encrypt_log enc log))
  in
  let shape r =
    (List.length r.Mining.Apriori.antecedent,
     List.length r.Mining.Apriori.consequent,
     r.Mining.Apriori.support, r.Mining.Apriori.confidence)
  in
  let same =
    List.sort compare (List.map shape plain_rules)
    = List.sort compare (List.map shape cipher_rules)
  in
  Format.printf
    "plaintext rules: %d, ciphertext rules: %d, identical support/confidence \
     spectra: %s@."
    (List.length plain_rules) (List.length cipher_rules)
    (if same then "PASS" else "FAIL");
  Format.printf "@.sample rules mined from ciphertext, decrypted for display:@.";
  let decrypt_item tok =
    match Dpe.Encryptor.decrypt_attr_name enc tok with
    | Some plain -> plain
    | None ->
      (* string-literal tokens hold hex DET ciphertexts of constants *)
      let n = String.length tok in
      if n >= 2 && tok.[0] = '\'' && tok.[n - 1] = '\'' then
        match
          Dpe.Encryptor.decrypt_query enc
            { Sqlir.Ast.simple_query with
              Sqlir.Ast.from = [ Dpe.Encryptor.encrypt_rel enc "r" ];
              where =
                Some
                  (Sqlir.Ast.Cmp
                     (Sqlir.Ast.Eq,
                      Sqlir.Ast.attr (Dpe.Encryptor.encrypt_attr_name enc "a"),
                      Sqlir.Ast.Cstring (String.sub tok 1 (n - 2)))) }
        with
        | Ok q ->
          (match q.Sqlir.Ast.where with
           | Some (Sqlir.Ast.Cmp (_, _, c)) -> Sqlir.Printer.const_to_string c
           | _ -> tok)
        | Error _ -> tok
      else tok
  in
  List.iteri
    (fun i r ->
      if i < 5 then
        Format.printf "  {%s} => {%s}  supp %.2f conf %.2f@."
          (String.concat ", " (List.map decrypt_item r.Mining.Apriori.antecedent))
          (String.concat ", " (List.map decrypt_item r.Mining.Apriori.consequent))
          r.Mining.Apriori.support r.Mining.Apriori.confidence)
    (List.filter
       (fun r -> List.length r.Mining.Apriori.antecedent = 1)
       cipher_rules)

(* ---------------------------------------------------------------- *)
(* A4: ablation — decoy injection as a frequency-attack countermeasure *)
(* ---------------------------------------------------------------- *)

let decoys () =
  section "A4 (extension): decoy injection vs the query-only attack";
  let log =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 60; templates = 3; seed = "a4";
        caps = Workload.Gen_query.caps_full }
  in
  let attack_rate log' =
    let scheme = Dpe.Selector.select M.Token (Dpe.Log_profile.of_log log') in
    let enc = Dpe.Encryptor.create keyring scheme in
    let cipher = Dpe.Encryptor.encrypt_log enc log' in
    let class_of a =
      Dpe.Scheme.ppe_of_const_class (Dpe.Scheme.class_for_attr scheme a)
    in
    (Attack.Harness.attack_log ~label:"" ~class_of ~plain:log' ~cipher)
      .Attack.Harness.overall.Attack.Attacks.rate
  in
  Format.printf "%-8s %-12s %-16s %s@." "ratio" "log size"
    "attack recovery" "real distances";
  hr ();
  let d_orig = M.matrix M.default_ctx M.Token log in
  List.iter
    (fun ratio ->
      let plan =
        Dpe.Decoys.inject ~seed:"a4" ~ratio Workload.Gen_db.skyserver_info log
      in
      let padded = plan.Dpe.Decoys.log in
      let d_padded = M.matrix M.default_ctx M.Token padded in
      let intact = Dpe.Decoys.strip_matrix plan d_padded = d_orig in
      Format.printf "%-8.2f %-12d %-16.3f %s@." ratio (List.length padded)
        (attack_rate padded)
        (if intact then "intact" else "CHANGED");
      ())
    [ 0.0; 0.5; 1.0; 2.0; 4.0 ];
  Format.printf
    "@.The attacker must now fit the flattened padded distribution; real@.";
  Format.printf
    "pairwise distances are untouched, the owner drops decoy rows on return.@."

(* ---------------------------------------------------------------- *)
(* A5: known-plaintext anchors vs OPE (Sanamrad-Kossmann model)       *)
(* ---------------------------------------------------------------- *)

let anchors () =
  section "A5: known-plaintext anchors against an OPE column";
  let rng = Crypto.Drbg.create ~seed:"a5" in
  let ope = Crypto.Keyring.ope keyring "a5" in
  let n = 3000 in
  let plains =
    List.init n (fun _ ->
        Minidb.Value.Vint (Crypto.Drbg.uniform_int rng 500))
  in
  let pairs =
    List.map
      (fun v -> match v with
         | Minidb.Value.Vint x ->
           (v, Minidb.Value.Vint (Crypto.Ope.encrypt ope (x + (1 lsl 31))))
         | _ -> assert false)
      plains
  in
  let aux = Attack.Aux_model.of_values plains in
  Format.printf "%-10s %s@." "anchors" "recovery rate";
  hr ();
  List.iter
    (fun k ->
      let anchors =
        if k = 0 then []
        else List.filteri (fun i _ -> i mod (n / k) = 0) pairs
      in
      let o = Attack.Attacks.known_plaintext_ope aux ~anchors pairs in
      Format.printf "%-10d %.3f@." (List.length anchors) o.Attack.Attacks.rate)
    [ 0; 5; 20; 100; 500 ];
  let ct_only = (Attack.Attacks.sorting aux pairs).Attack.Attacks.rate in
  Format.printf "%-10s %.3f  (ciphertext-only sorting attack, for reference)@."
    "-" ct_only

(* ---------------------------------------------------------------- *)
(* A6: session-level mining (DTW) over the encrypted log              *)
(* ---------------------------------------------------------------- *)

let sessions () =
  section "A6 (extension): session-level mining with dynamic time warping";
  let sessions =
    Workload.Gen_query.skyserver_sessions
      { Workload.Gen_query.n = 16; templates = 4; seed = "a6";
        caps = Workload.Gen_query.caps_full }
      ~length:6
  in
  let truth = Array.of_list (List.map fst sessions) in
  let plain = List.map snd sessions in
  let flat = List.concat plain in
  let scheme = Dpe.Selector.select M.Structure (Dpe.Log_profile.of_log flat) in
  let enc = Dpe.Encryptor.create keyring scheme in
  let cipher = List.map (List.map (Dpe.Encryptor.encrypt_query enc)) plain in
  let dp = M.session_matrix plain
  and dc = M.session_matrix cipher in
  let lp = Mining.Hier.cut_k 4 dp and lc = Mining.Hier.cut_k 4 dc in
  Format.printf "sessions: %d (avg %.1f queries each)@." (List.length plain)
    (float_of_int (List.length flat) /. float_of_int (List.length plain));
  Format.printf "max |DTW(enc) - DTW(plain)|: %g@."
    (Mining.Dist_matrix.max_abs_diff dp dc);
  Format.printf "max |DTW - per-pair reference DTW|: %g@."
    (Mining.Dist_matrix.max_abs_diff dp
       (Reference.session_matrix plain));
  Format.printf "session clusterings identical: %b@."
    (Mining.Labeling.same_partition lp lc);
  Format.printf "clusters vs planted templates: ARI %.3f, purity %.3f,                  silhouette %.3f@."
    (Mining.Labeling.adjusted_rand_index truth lc)
    (Mining.Labeling.purity ~truth lc)
    (Ablation.Silhouette.score dc lc)

(* ---------------------------------------------------------------- *)
(* A7: ablation — k-medoids initialization vs the PAM swap phase      *)
(* ---------------------------------------------------------------- *)

let kmedoids_ablation () =
  section "A7 (ablation): Park-Jun alternation vs full PAM swaps";
  Format.printf "%-8s %-22s %-12s %-12s %-12s@." "seed" "measure"
    "fast purity" "PAM purity" "clink purity";
  hr ();
  List.iter
    (fun seed ->
      let p = { Workload.Gen_query.n = 40; templates = 3; seed;
                caps = Workload.Gen_query.caps_full } in
      let labelled = Workload.Gen_query.skyserver_log_labelled p in
      let truth = Array.of_list (List.map fst labelled) in
      let log = List.map snd labelled in
      let dm = M.matrix M.default_ctx M.Token log in
      let purity labels = Mining.Labeling.purity ~truth labels in
      Format.printf "%-8s %-22s %-12.3f %-12.3f %-12.3f@." seed "token"
        (purity (Mining.Kmedoids.run { Mining.Kmedoids.k = 3; max_iter = 40 } dm))
        (purity (Mining.Kmedoids.run_pam { Mining.Kmedoids.k = 3; max_iter = 40 } dm))
        (purity (Mining.Hier.cut_k 3 dm)))
    [ "gt"; "a7-b"; "a7-c"; "a7-d" ];
  Format.printf
    "@.The centrality initialization can seed all medoids inside one dense@.";
  Format.printf
    "cluster; the PAM swap phase recovers, matching complete link.@."

(* ---------------------------------------------------------------- *)

(* [-- perf --json [PATH]] additionally writes the machine-readable perf
   trajectory (op, n, domains, ns/op, speedup) plus a kitdpe.* metrics
   snapshot.  [--compare OLD.json] prints a per-op table against an
   earlier snapshot and makes the process exit 3 if any op that both
   snapshots measured with [identical = true] got > 20% slower. *)
let json_path = ref None
let json_default = "BENCH_PR10.json"
let compare_path = ref None
let compare_regressed = ref false

(* A metrics snapshot for the JSON artifact.  If telemetry was already on
   (KITDPE_OBS=1) the snapshot keeps whatever the timed runs above
   accumulated; otherwise telemetry is switched on just for a small fixed
   workload that touches every instrumented layer, so the snapshot is
   populated without perturbing the timings. *)
let metered_metrics_snapshot () =
  let was_on = Obs.is_enabled () in
  if not was_on then begin
    Obs.set_enabled true;
    Obs.Registry.reset ();
    Obs.Span.clear ()
  end;
  (* baseline epoch: the fixed workload below then shows up as windowed
     throughput in the snapshot's "window" section *)
  Obs.Window.reset ();
  Obs.Window.force ();
  let log =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 40; templates = 4; seed = "p2-obs";
        caps = Workload.Gen_query.caps_for_measure M.Access }
  in
  let scheme = Dpe.Selector.select M.Access (Dpe.Log_profile.of_log log) in
  let enc = Dpe.Encryptor.create keyring scheme in
  let cipher = Dpe.Encryptor.encrypt_log enc log in
  ignore (Dpe.Encryptor.encrypt_log enc log); (* warm pass: memo-cache hits *)
  let dm = M.matrix M.default_ctx M.Access cipher in
  ignore (Mining.Hier.cut_k 4 dm);
  let db = Workload.Gen_db.skyserver ~seed:"p2-obs" ~rows:60 in
  let rlog =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 20; templates = 4; seed = "p2-obs";
        caps = Workload.Gen_query.caps_for_measure M.Result }
  in
  let rscheme = Dpe.Selector.select M.Result (Dpe.Log_profile.of_log rlog) in
  ignore
    (Dpe.Db_encryptor.encrypt_database
       (Dpe.Encryptor.create keyring rscheme) db);
  (* lint cost rides along in the stamp (kitdpe.lint gauges): tools/trend can
     then chart analysis runtime PR over PR like any hot-path metric.
     Skipped when the bench runs outside a checkout (no source roots). *)
  (match
     List.filter
       (fun d -> Sys.file_exists d && Sys.is_directory d)
       [ "lib"; "bin"; "bench"; "test" ]
   with
   | [] -> ()
   | roots ->
     let t0 = Unix.gettimeofday () in
     let r = Lint_core.Engine.run ~roots in
     let ns = (Unix.gettimeofday () -. t0) *. 1e9 in
     Obs.Metric.set_gauge
       (Obs.Registry.gauge "kitdpe.lint.files")
       r.Lint_core.Engine.files_scanned;
     Obs.Metric.set_gauge
       (Obs.Registry.gauge "kitdpe.lint.findings")
       (List.length r.Lint_core.Engine.findings);
     Obs.Metric.set_gauge (Obs.Registry.gauge "kitdpe.lint.ns") (int_of_float ns));
  let snap = Obs.Export.snapshot () in
  if not was_on then Obs.set_enabled false;
  snap

let perf_and_trajectory () =
  perf ();
  (* let-bound in order: [a @ b] evaluates [b] first, and P2 must not
     inherit P3's heap *)
  let p2 = perf_parallel () in
  let p3 = perf_index () in
  let entries = p2 @ p3 in
  (match !json_path with
   | Some path -> emit_perf_json ~metrics:(metered_metrics_snapshot ()) path entries
   | None -> ());
  match !compare_path with
  | None -> ()
  | Some old_path ->
    (match Perf_compare.load old_path with
     | Error e ->
       Format.printf "@.cannot compare against %s: %s@." old_path e;
       compare_regressed := true
     | Ok old_entries ->
       let cur_entries =
         List.map
           (fun e ->
             { Perf_compare.op = e.op; n = e.pe_n;
               ns_per_op = e.optimized_ns;
               baseline_ns_per_op = e.baseline_ns;
               identical = e.identical })
           entries
       in
       if
         Perf_compare.report ~old_label:old_path ~old_entries ~cur_entries
           Format.std_formatter
       then compare_regressed := true)

let experiments =
  [ ("fig1", fig1); ("table1", table1); ("preserve", preserve);
    ("mining", mining); ("security", security); ("perf", perf_and_trajectory);
    ("ablation-ope", ablation_ope); ("ablation-x", ablation_x);
    ("rules", rules); ("decoys", decoys); ("anchors", anchors);
    ("sessions", sessions); ("ablation-kmedoids", kmedoids_ablation) ]

(* [--json] alone keeps the default path; [--json PATH] and
   [--json=PATH] name the output file; [--compare OLD.json] /
   [--compare=OLD.json] name an earlier snapshot to diff against.  A
   bare word after [--json] that names an experiment is an experiment,
   not a path. *)
let rec parse_args = function
  | [] -> []
  | "--json" :: rest -> (
    match rest with
    | path :: rest'
      when String.length path > 0
           && path.[0] <> '-'
           && not (List.mem_assoc path experiments) ->
      json_path := Some path;
      parse_args rest'
    | _ ->
      json_path := Some json_default;
      parse_args rest)
  | arg :: rest
    when String.length arg > 7 && String.sub arg 0 7 = "--json=" ->
    json_path := Some (String.sub arg 7 (String.length arg - 7));
    parse_args rest
  | "--compare" :: path :: rest
    when String.length path > 0
         && path.[0] <> '-'
         && not (List.mem_assoc path experiments) ->
    compare_path := Some path;
    parse_args rest
  | arg :: rest
    when String.length arg > 10 && String.sub arg 0 10 = "--compare=" ->
    compare_path := Some (String.sub arg 10 (String.length arg - 10));
    parse_args rest
  | arg :: rest -> arg :: parse_args rest

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let names = parse_args args in
  let requested =
    match names with
    | _ :: _ ->
      List.filter_map
        (fun n ->
          match List.assoc_opt n experiments with
          | Some f -> Some (n, f)
          | None ->
            Format.printf "unknown experiment %S (have: %s)@." n
              (String.concat ", " (List.map fst experiments));
            None)
        names
    | [] -> experiments
  in
  List.iter (fun (_, f) -> f ()) requested;
  (* exit 3 = perf regression detected by [--compare] (distinct from a
     crash, so CI can treat it as a warning) *)
  if !compare_regressed then exit 3

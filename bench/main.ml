(* Experiment harness: regenerates every display item of the paper plus the
   formal claims as measurable artifacts, and runs the performance rows.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig1    -- only Fig. 1
     ... fig1 | table1 | preserve | mining | security | perf | ...
     dune exec bench/main.exe -- perf --json            -- write BENCH_PR34.json
     dune exec bench/main.exe -- perf --json=perf.json  -- explicit output path
     ... perf --json --compare BENCH_PR34.json  -- diff vs an old snapshot
                        (exit 4 if a count rose, 3 if a timed row got slower)

   An unknown experiment name exits 2.

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
(* P1-P3: performance rows                                           *)
(* ---------------------------------------------------------------- *)

(* The one sampler behind every timed row.  Each path gets one warm-up,
   which also works out how many back-to-back runs make a sample last at
   least [min_sample_ns].  Then every registered path is sampled once
   per round, for [samples] rounds, each sample on a freshly compacted
   heap: a row's baseline and optimized samples alternate, and a slow
   phase of the host lands on one sample of many rows rather than on
   every sample of one.  A path reports the median and the interquartile
   range of its samples, per operation. *)
let samples = 5
let min_sample_ns = 1e7

(* [setup reps] runs untimed before every sample of [reps] runs, for a
   path whose runs use up state *)
type path = { setup : int -> unit; run : unit -> unit }

let path ?(setup = ignore) f =
  { setup; run = (fun () -> ignore (Sys.opaque_identity (f ()))) }

let batch_ns p reps =
  p.setup reps;
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do p.run () done;
  (Unix.gettimeofday () -. t0) *. 1e9

(* the warm-up doubles the batch until it reads at least 1 ms, then
   scales it to [min_sample_ns] *)
let warm_up p =
  let rec go reps =
    let ns = batch_ns p reps in
    if ns >= min_sample_ns then reps
    else if ns >= 1e6 then
      int_of_float (Float.ceil (min_sample_ns *. float_of_int reps /. ns))
    else go (2 * reps)
  in
  go 1

(* [per] operations make one run of the path *)
type timing = { p : path; reps : int; per : int; xs : float array }

let timing ?(per = 1) p =
  { p; reps = warm_up p; per; xs = Array.make samples Float.nan }

let sample_rounds timings =
  for i = 0 to samples - 1 do
    List.iter
      (fun t -> t.xs.(i) <- batch_ns t.p t.reps /. float_of_int (t.reps * t.per))
      timings
  done

let spread t = Perf_compare.summarize t.xs

(* Rows are registered (and warmed up) by the sections, then sampled
   together. *)
type pending = {
  op : string;
  n : int;
  domains : int;
  cur : timing;
  base : (timing * bool) option;
}

let pending = ref []

(* [base] is the baseline path and whether it computed the same answer
   as [cur]. *)
let row ~op ~n ?(domains = 1) ?per ?base cur =
  let base = Option.map (fun (b, identical) -> (timing ?per b, identical)) base in
  pending := { op; n; domains; cur = timing ?per cur; base } :: !pending

let sample_rows () =
  let rows = List.rev !pending in
  pending := [];
  sample_rounds
    (List.concat_map
       (fun r -> Option.fold ~none:[] ~some:(fun (b, _) -> [ b ]) r.base @ [ r.cur ])
       rows);
  List.map
    (fun r ->
      { Perf_compare.op = r.op; n = r.n; domains = r.domains; cur = spread r.cur;
        base = Option.map (fun (b, identical) -> (spread b, identical)) r.base })
    rows

(* P1: the cost of each PPE class's primitive, and what encryption adds
   to one distance and to the whole pipeline: the plaintext input is the
   baseline, and [identical] checks that the ciphertext input gives the
   same distances (Definition 1). *)
let perf_primitives () =
  let rng = Crypto.Drbg.create ~seed:"perf" in
  let det = Crypto.Keyring.det keyring "perf-det" in
  let prob = Crypto.Keyring.prob keyring "perf-prob" in
  let ope = Crypto.Keyring.ope keyring "perf-ope" in
  let pub, _ = Crypto.Paillier.keygen ~bits:512 (Crypto.Drbg.create ~seed:"perf-p") in
  let msg = "a sixteen-byte-ish message for the scheme benchmarks" in
  let len = String.length msg in
  let aes_key = Crypto.Aes128.expand (String.make 16 'k') in
  let block = String.make 16 'b' in
  let counter = ref 0 in
  row ~op:"ppe/sha256" ~n:len (path (fun () -> Crypto.Sha256.digest msg));
  row ~op:"ppe/aes128_block" ~n:16
    (path (fun () -> Crypto.Aes128.encrypt_block aes_key block));
  row ~op:"ppe/det_encrypt" ~n:len (path (fun () -> Crypto.Det.encrypt det msg));
  row ~op:"ppe/prob_encrypt" ~n:len
    (path (fun () -> Crypto.Prob.encrypt prob rng msg));
  (* a fresh plaintext per run, so the OPE memo never hits *)
  row ~op:"ppe/ope_encrypt" ~n:32
    (path (fun () ->
         incr counter;
         Crypto.Ope.encrypt ope (!counter land 0xFFFFFF)));
  row ~op:"ppe/hom_encrypt" ~n:512
    (path (fun () -> Crypto.Paillier.encrypt_int pub rng 12345));

  let mlog m n =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n; templates = 3; seed = "perf";
        caps = Workload.Gen_query.caps_for_measure m }
  in
  List.iter
    (fun m ->
      let log = mlog m 20 in
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
      let plain () = M.compute ctx_p m q1 q2 and cipher () = M.compute ctx_c m e1 e2 in
      row ~op:("distance/" ^ M.to_string m) ~n:1
        ~base:(path plain, plain () = cipher ())
        (path cipher))
    M.all;

  let domains = Parallel.Pool.default_domains () in
  List.iter
    (fun n ->
      let log = Workload.Gen_query.skyserver_log
          { Workload.Gen_query.n; templates = 4; seed = "scale";
            caps = Workload.Gen_query.caps_full } in
      let scheme = Dpe.Selector.select M.Structure (Dpe.Log_profile.of_log log) in
      let enc = Dpe.Encryptor.create keyring scheme in
      let plain () = M.matrix M.default_ctx M.Structure log in
      let cipher () =
        M.matrix M.default_ctx M.Structure (Dpe.Encryptor.encrypt_log enc log)
      in
      row ~op:"pipeline/structure" ~n ~domains
        ~base:(path plain, Mining.Dist_matrix.max_abs_diff (plain ()) (cipher ()) = 0.0)
        (path cipher))
    [ 25; 50; 100 ]

(* P2: each row times a baseline implementation against the current
   optimized path for the same operation.  [identical] asserts the two
   paths computed the same answer (bit-for-bit for distance matrices and
   deterministic ciphers). *)

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
  let domains = Parallel.Pool.default_domains () in
  let pool = Parallel.Pool.global () in

  (* 1. distance matrices: the seed's sequential per-pair loop (every
     cell re-prints, re-lexes and re-extracts both queries, or re-runs
     both result queries, with the per-pair definitions of [Reference],
     on a 1-lane pool) vs the current [Measure.matrix] path — per-query
     feature precomputation (Distance.Features), interned-int kernels
     and pooled row blocks *)
  let seq_pool = Parallel.Pool.create ~domains:1 () in
  List.iter
    (fun (m, n) ->
      let log =
        Workload.Gen_query.skyserver_log
          { Workload.Gen_query.n; templates = 4; seed = "p2-dm";
            caps = Workload.Gen_query.caps_for_measure m }
      in
      let ctx =
        if m = M.Result then
          M.ctx_with_db (Workload.Gen_db.skyserver ~seed:"perf" ~rows:60)
        else M.default_ctx
      in
      let qs = Array.of_list log in
      let d i j = Reference.compute ctx m qs.(i) qs.(j) in
      let per_pair () = Mining.Dist_matrix.of_fun ~pool:seq_pool n d in
      let feat () = M.matrix ~pool ctx m log in
      row ~op:("dist_matrix/" ^ M.to_string m) ~n ~domains
        ~base:(path per_pair, Mining.Dist_matrix.max_abs_diff (per_pair ()) (feat ()) = 0.0)
        (path feat))
    [ (M.Edit, 200); (M.Edit, 400); (M.Token, 300); (M.Access, 300); (M.Result, 20) ];
  Parallel.Pool.shutdown seq_pool;

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
  row ~op:"levenshtein/myers" ~n:lev_pairs ~per:lev_pairs
    ~base:(path (fun () -> Array.map dp lev_inputs),
           Array.map dp lev_inputs = Array.map myers lev_inputs)
    (path (fun () -> Array.map myers lev_inputs));

  (* 2. bulk database encryption: seed's per-value sequential loop vs the
     chunked pooled path with DET/OPE memos and per-row DRBGs *)
  let dblog =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 30; templates = 4; seed = "p2-db";
        caps = Workload.Gen_query.caps_for_measure M.Result }
  in
  let dbscheme = Dpe.Selector.select M.Result (Dpe.Log_profile.of_log dblog) in
  let db = Workload.Gen_db.skyserver ~seed:"p2-db" ~rows:800 in
  let total_rows =
    List.fold_left
      (fun acc t -> acc + Minidb.Table.cardinality t)
      0 (Minidb.Database.tables db)
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
  row ~op:"encrypt_database/skyserver" ~n:total_rows ~domains
    ~base:(path (fun () ->
               seed_encrypt_database (Dpe.Encryptor.create keyring dbscheme) db),
           identical)
    (path (fun () ->
         Dpe.Db_encryptor.encrypt_database ~pool
           (Dpe.Encryptor.create keyring dbscheme) db));

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
      row ~op:(Printf.sprintf "bignum/modexp/%d" bits) ~n:bits
        ~base:(path (fun () -> Bn.mod_pow_binary b e m),
               Bn.equal (Bn.mod_pow_binary b e m) (Bn.mod_pow b e m))
        (path (fun () -> Bn.mod_pow b e m)))
    [ 512; 1024 ];
  List.iter
    (fun (op, bits) ->
      let m, b, e = modexp_case bits in
      let ctx = Option.get (Bn.mont_create m) in
      row ~op ~n:bits
        ~base:(path (fun () -> Bn.mont_pow_binary ctx b e),
               Bn.equal (Bn.mont_pow_binary ctx b e) (Bn.mont_pow ctx b e))
        (path (fun () -> Bn.mont_pow ctx b e)))
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
  let run_enc f = Array.map (f (Crypto.Drbg.create ~seed:"p2-enc")) msgs in
  row ~op:"paillier/encrypt" ~n:enc_k ~per:enc_k
    ~base:(path (fun () -> run_enc naive_encrypt),
           Array.for_all2 Bn.equal (run_enc naive_encrypt)
             (run_enc (Crypto.Paillier.encrypt ppub)))
    (path (fun () -> run_enc (Crypto.Paillier.encrypt ppub)));

  (* warm-pool encryption: every run uses up one pool entry per label,
     so each sample's setup fills one fresh round of labels per run,
     untimed, and only the request path is clocked *)
  let pool_k = 32 in
  let label round i = Printf.sprintf "bench/%d/%d" round i in
  let label_rng k = Crypto.Drbg.create ~seed:("p2-pool/" ^ k) in
  let encrypt_round pl round =
    Array.init pool_k (fun i ->
        let k = label round i in
        Crypto.Paillier.encrypt_pooled ?pool:pl ppub ~key:k (label_rng k)
          (Bn.of_int 7))
  in
  let fill pl round =
    for i = 0 to pool_k - 1 do
      let k = label round i in
      Crypto.Paillier.noise_fill pl ppub ~key:k (label_rng k)
    done
  in
  let pool_now = ref (Crypto.Paillier.pool_create ()) and round = ref 0 in
  let setup reps =
    let pl = Crypto.Paillier.pool_create () in
    for r = 0 to reps - 1 do fill pl r done;
    pool_now := pl;
    round := 0
  in
  let pooled () =
    let r = !round in
    incr round;
    encrypt_round (Some !pool_now) r
  in
  row ~op:"paillier/encrypt_pooled" ~n:pool_k ~per:pool_k
    ~base:(path (fun () -> encrypt_round None 0),
           (setup 1;
            Array.for_all2 Bn.equal (pooled ()) (encrypt_round None 0)))
    (path ~setup pooled);

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
  let dec_identical = Array.for_all2 Bn.equal (lam_dec ()) (crt_dec ()) in
  row ~op:"paillier/decrypt" ~n:dec_k ~per:dec_k
    ~base:(path (fun () ->
               Array.map (fun c -> Bn.mod_pow_binary c fake_lambda pn2) cts),
           dec_identical)
    (path crt_dec);
  (* the CRT gain in isolation: against the already-Montgomery lambda path *)
  row ~op:"paillier/decrypt_crt" ~n:dec_k ~per:dec_k
    ~base:(path lam_dec, dec_identical) (path crt_dec);
  let k_scalar = 1000 in
  let smul_base () =
    Array.map (fun c -> Bn.mod_pow_binary c (Bn.of_int k_scalar) pn2) cts
  in
  let smul () = Array.map (fun c -> Crypto.Paillier.scalar_mul ppub c k_scalar) cts in
  row ~op:"paillier/scalar_mul" ~n:dec_k ~per:dec_k
    ~base:(path smul_base, Array.for_all2 Bn.equal (smul_base ()) (smul ()))
    (path smul);

  (* 5. encrypt_database over a HOM column.  The baseline replays the
     seed's sequential per-value loop with division-based Paillier on
     every HOM cell (same per-cell DRBG, so the ciphertexts are
     bit-identical); the optimized path prewarms the noise pool across
     the lanes and only assembles on the request path. *)
  let hom_q =
    match
      Sqlir.Parser.parse_result
        "SELECT class, SUM(redshift) AS total FROM photoobj GROUP BY class"
    with
    | Ok q -> q
    | Error e -> failwith e
  in
  let hom_scheme = Dpe.Selector.select M.Result (Dpe.Log_profile.of_log (hom_q :: dblog)) in
  (* photoobj has one HOM attribute (redshift); specobj has none *)
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
  let prewarmed () =
    let enc = Dpe.Encryptor.create keyring hom_scheme in
    assert (snd (Dpe.Db_encryptor.prewarm_hom_noise_r ~pool enc hom_db) = []);
    Dpe.Db_encryptor.encrypt_database ~pool enc hom_db
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
    let b = prewarmed () in
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
  row ~op:"encrypt_database/hom" ~n:hom_rows ~domains
    ~base:(path (fun () ->
               naive_hom_database (Dpe.Encryptor.create keyring hom_scheme) hom_db),
           hom_identical)
    (path prewarmed);

  (* 6. OPE memo: cold tree descents vs cache hits, same key *)
  let ope = Crypto.Keyring.ope keyring "p2-ope" in
  let orng = Crypto.Drbg.create ~seed:"p2-ope" in
  let n_ope = 2000 in
  let vals = Array.init n_ope (fun _ -> Crypto.Drbg.uniform_int orng (1 lsl 24)) in
  let cold () =
    Crypto.Ope.cache_clear ope;
    Array.map (Crypto.Ope.encrypt ope) vals
  in
  let hot () = Array.map (Crypto.Ope.encrypt ope) vals in
  row ~op:"ope_encrypt/memo" ~n:n_ope ~per:n_ope
    ~base:(path cold, cold () = hot ())
    (path hot)

(* P3: indexes.  Each range row compares the brute-force neighbor scan
   (n-1 exact probes per query through the library's staged evaluator,
   [Index.Space.within], the query's side staged once) against the index
   that [Index.Vp_tree.build] picks on a sampled query set, per query,
   with [identical] asserting equal neighbor sets.  Every row keeps its
   [index/vp_*] name so [--compare] lines up with older snapshots, but
   none runs a VP-tree: the edit rows run the BK-tree and the token rows
   the prefix filter.  The index's probes, summed over the sampled
   queries, are returned as exact counts.  Templates scale with n
   (constant cluster size) and eps stays at near-duplicate radius — the
   regime the indexes are built for. *)
let perf_index () =
  let domains = Parallel.Pool.default_domains () in
  let pool = Parallel.Pool.global () in
  let eps = 0.1 in
  let n_sample = 64 in
  let space_of m n =
    let log =
      Workload.Gen_query.skyserver_log
        { Workload.Gen_query.n; templates = max 4 (n / 50); seed = "p3-index";
          caps = Workload.Gen_query.caps_for_measure m }
    in
    Index.Space.flat m (Distance.Features.build ~pool (Array.of_list log))
  in
  let brute sp q =
    let within_q = Index.Space.within sp ~eps q in
    let acc = ref [] in
    for j = Index.Space.size sp - 1 downto 0 do
      if j <> q && within_q j then acc := j :: !acc
    done;
    !acc
  in
  let sampled n = Array.init n_sample (fun i -> i * n / n_sample) in

  (* 1. index eps-range vs brute force *)
  let probe_counts =
    List.map
      (fun (m, n) ->
        let mname = M.to_string m in
        let sp = space_of m n in
        let tree = Index.Vp_tree.build ~pool ~seed:"p3" sp in
        let queries = sampled n in
        let brute_all () = Array.map (brute sp) queries in
        let index_all () = Array.map (Index.Vp_tree.range tree ~eps) queries in
        row ~op:("index/vp_range/" ^ mname) ~n ~domains ~per:n_sample
          ~base:(path brute_all, brute_all () = index_all ())
          (path index_all);
        let probes =
          Array.fold_left
            (fun acc q ->
              let _, st = Index.Vp_tree.range_stats tree ~eps q in
              acc + st.Index.Vp_tree.probes)
            0 queries
        in
        (Printf.sprintf "index/probes/%s/%d" mname n, probes))
      [ (M.Edit, 1000); (M.Edit, 10000); (M.Token, 1000) ]
  in

  (* 2. DBSCAN end-to-end: brute-force neighbor scans vs the index
     engine, identical labels, on the token space *)
  let n_db = 1000 in
  let sp_db = space_of M.Token n_db in
  let vp = Index.Vp_tree.build ~pool ~seed:"p3" sp_db in
  let scans = { Mining.Dbscan.ri_n = n_db; range = brute sp_db } in
  let ri =
    { Mining.Dbscan.ri_n = n_db;
      range = (fun i -> Index.Vp_tree.range vp ~eps i) }
  in
  let dbscan r () = Mining.Dbscan.run_index ~min_pts:3 r in
  row ~op:"mining/dbscan_index" ~n:n_db ~domains
    ~base:(path (dbscan scans), dbscan scans () = dbscan ri ())
    (path (dbscan ri));
  probe_counts

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
  (* the uniform sampler's memo is cleared per run, so both encrypt cold *)
  let uni_all () =
    Crypto.Ope.cache_clear uni;
    Array.init n (Crypto.Ope.encrypt uni)
  in
  let hgd_all () = Array.init n (Ablation.Ope_hgd.encrypt hgd) in
  let cu = uni_all () and ch = hgd_all () in
  let tu = timing ~per:n (path uni_all) and th = timing ~per:n (path hgd_all) in
  sample_rounds [ tu; th ];
  let tu = (spread tu).Perf_compare.median /. 1e3
  and th = (spread th).Perf_compare.median /. 1e3 in
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

(* [-- perf --json [PATH]] additionally writes the perf snapshot (every
   row's median and interquartile range, and the exact counts) plus a
   kitdpe.* metrics snapshot.  [--compare OLD.json] prints a row-by-row
   table against an earlier snapshot; the process exits 4 if a count
   rose and 3 if a timed row got slower beyond its spread
   ([Perf_compare.exit_code]). *)
let json_path = ref None
let json_default = "BENCH_PR34.json"
let compare_path = ref None
let exit_status = ref 0

(* The metrics snapshot of one small fixed workload that touches every
   instrumented layer, run on a reset registry with telemetry on, so its
   work counters are exact and the same from run to run. *)
let metered_metrics_snapshot () =
  let was_on = Obs.is_enabled () in
  Obs.set_enabled true;
  Obs.Registry.reset ();
  Obs.Span.clear ();
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
  ignore (Mining.Dbscan.run { Mining.Dbscan.eps = 0.3; min_pts = 3 } dm);
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

(* the fixed workload's work counters that the snapshot gates exactly *)
let workload_counts snap =
  let value name =
    let module J = Obs.Json in
    match
      Option.bind (J.member "metrics" snap) (J.member ("kitdpe." ^ name))
      |> Fun.flip Option.bind (J.member "value")
      |> Fun.flip Option.bind J.to_int
    with
    | Some v -> (name, v)
    | None -> failwith ("metrics snapshot lacks kitdpe." ^ name)
  in
  List.map value
    [ "distance.measure.evals"; "distance.features.builds";
      "mining.hier.cluster_dists"; "mining.dbscan.neighbor_scans";
      "crypto.det.calls"; "crypto.ope.cache_misses" ]

let emit_perf_json ~metrics path snap =
  let module J = Obs.Json in
  let int = J.int and str s = J.Str s in
  (* GC counters at emit time: how much allocator pressure the whole
     bench run generated on this host *)
  let gc = Gc.quick_stat () in
  let oc = open_out path in
  output_string oc
    (J.to_string
       (J.Obj
          ([ ("pr", int 34); ("bench", str "perf --json");
             ("samples", int samples);
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
             ("gc_promoted_words", J.Num gc.Gc.promoted_words) ]
           @ Perf_compare.fields snap
           @ [ ("metrics", metrics) ])));
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wrote %s@." path

let perf () =
  section "P1-P3: performance rows";
  Format.printf
    "recommended domains %d, pool size %d (override with KITDPE_DOMAINS); \
     median and interquartile range of %d samples per path@.@."
    (Domain.recommended_domain_count ())
    (Parallel.Pool.default_domains ()) samples;
  perf_primitives ();
  perf_parallel ();
  let probe_counts = perf_index () in
  let rows = sample_rows () in
  let metrics = metered_metrics_snapshot () in
  let snap =
    { Perf_compare.rows; counts = probe_counts @ workload_counts metrics }
  in
  Perf_compare.print_header Format.std_formatter;
  List.iter (Perf_compare.print_row Format.std_formatter) rows;
  Perf_compare.print_counts Format.std_formatter snap.Perf_compare.counts;
  Option.iter (fun path -> emit_perf_json ~metrics path snap) !json_path;
  Option.iter
    (fun old_path ->
      match Perf_compare.load old_path with
      | Error e ->
        Format.eprintf "cannot compare against %s: %s@." old_path e;
        exit 2
      | Ok old ->
        let lines = Perf_compare.compare ~old ~cur:snap in
        Perf_compare.report ~old_label:old_path lines Format.std_formatter;
        exit_status := Perf_compare.exit_code lines)
    !compare_path

let experiments =
  [ ("fig1", fig1); ("table1", table1); ("preserve", preserve);
    ("mining", mining); ("security", security); ("perf", perf);
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
  List.iter
    (fun n ->
      if not (List.mem_assoc n experiments) then begin
        Format.eprintf "unknown experiment %S (have: %s)@." n
          (String.concat ", " (List.map fst experiments));
        exit 2
      end)
    names;
  let requested =
    if names = [] then List.map snd experiments
    else List.map (fun n -> List.assoc n experiments) names
  in
  List.iter (fun f -> f ()) requested;
  exit !exit_status

(* End-to-end integration: the full outsourcing pipeline of the paper.

   data owner: generate log (+ db) -> profile -> select scheme -> encrypt
   service provider: compute distances over ciphertexts -> run mining
   verification: mining results on plaintext and ciphertext are identical *)

module M = Distance.Measure

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let keyring = Crypto.Keyring.create ~master:"integration"

let pipeline m ~seed ~n =
  let log =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n; templates = 4; seed;
        caps = Workload.Gen_query.caps_for_measure m }
  in
  let profile = Dpe.Log_profile.of_log log in
  let scheme = Dpe.Selector.select m profile in
  let enc = Dpe.Encryptor.create keyring scheme in
  let enc_log = Dpe.Encryptor.encrypt_log enc log in
  let plain_db, cipher_db =
    if m = M.Result then begin
      let db = Workload.Gen_db.skyserver ~seed ~rows:100 in
      (Some db, Some (Dpe.Db_encryptor.encrypt_database enc db))
    end
    else (None, None)
  in
  let plain_ctx = { M.db = plain_db; x = 0.5 } in
  let cipher_ctx = { M.db = cipher_db; x = 0.5 } in
  let dp = M.matrix plain_ctx m log in
  let dc = M.matrix cipher_ctx m enc_log in
  (log, dp, dc)

let all_mining_agree dp dc =
  let db_p = Mining.Dbscan.run { Mining.Dbscan.eps = 0.45; min_pts = 3 } dp in
  let db_c = Mining.Dbscan.run { Mining.Dbscan.eps = 0.45; min_pts = 3 } dc in
  let km_p = Mining.Kmedoids.run { Mining.Kmedoids.k = 4; max_iter = 40 } dp in
  let km_c = Mining.Kmedoids.run { Mining.Kmedoids.k = 4; max_iter = 40 } dc in
  let h_p = Mining.Hier.cut_k 4 dp in
  let h_c = Mining.Hier.cut_k 4 dc in
  let o_p = Mining.Outlier.run { Mining.Outlier.p = 0.95; d = 0.8 } dp in
  let o_c = Mining.Outlier.run { Mining.Outlier.p = 0.95; d = 0.8 } dc in
  Mining.Labeling.same_partition db_p db_c
  && Mining.Labeling.same_partition km_p km_c
  && Mining.Labeling.same_partition h_p h_c
  && o_p = o_c

let test_pipeline m () =
  let _, dp, dc = pipeline m ~seed:("pipe-" ^ M.to_string m) ~n:30 in
  check_bool "matrices valid" true
    (Mining.Dist_matrix.validate dp = Ok () && Mining.Dist_matrix.validate dc = Ok ());
  check_bool "distances identical" true (Mining.Dist_matrix.max_abs_diff dp dc = 0.0);
  check_bool "all four algorithms agree" true (all_mining_agree dp dc)

(* clustering over the encrypted log recovers the planted templates about
   as well as over the plaintext log — and identically so *)
let test_ground_truth_recovery () =
  (* token distance sees constants, so it separates templates that share a
     query shape; structure distance intentionally cannot *)
  let p = { Workload.Gen_query.n = 40; templates = 3; seed = "gt";
            caps = Workload.Gen_query.caps_for_measure M.Token } in
  let labelled = Workload.Gen_query.skyserver_log_labelled p in
  let truth = Array.of_list (List.map fst labelled) in
  let log = List.map snd labelled in
  let scheme = Dpe.Selector.select M.Token (Dpe.Log_profile.of_log log) in
  let enc = Dpe.Encryptor.create keyring scheme in
  let dp = M.matrix M.default_ctx M.Token log in
  let dc =
    M.matrix M.default_ctx M.Token
      (Dpe.Encryptor.encrypt_log enc log)
  in
  let labels_p = Mining.Hier.cut_k 3 dp in
  let labels_c = Mining.Hier.cut_k 3 dc in
  check_bool "same labels" true (Mining.Labeling.same_partition labels_p labels_c);
  let purity = Mining.Labeling.purity ~truth labels_p in
  check_bool "clusters reflect templates" true (purity >= 0.8);
  let db_p = Mining.Dbscan.run { Mining.Dbscan.eps = 0.4; min_pts = 3 } dp in
  let db_c = Mining.Dbscan.run { Mining.Dbscan.eps = 0.4; min_pts = 3 } dc in
  check_bool "dbscan same labels" true (Mining.Labeling.same_partition db_p db_c);
  check_bool "dbscan recovers templates" true
    (Mining.Labeling.purity ~truth db_p >= 0.8)

(* §V future work: association-rule mining over the encrypted log gives
   structurally identical rules (supports/confidences match exactly) *)
let test_association_rules () =
  let log =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 40; templates = 3; seed = "rules";
        caps = Workload.Gen_query.caps_full }
  in
  let scheme = Dpe.Selector.select M.Token (Dpe.Log_profile.of_log log) in
  let enc = Dpe.Encryptor.create keyring scheme in
  let transactions l =
    List.map (fun q -> Distance.D_token.tokens (Sqlir.Printer.to_string q)) l
  in
  let params =
    { Mining.Apriori.min_support = 0.3; min_confidence = 0.8; max_size = 3 }
  in
  let plain_rules = Mining.Apriori.rules params (transactions log) in
  let cipher_rules =
    Mining.Apriori.rules params (transactions (Dpe.Encryptor.encrypt_log enc log))
  in
  check_bool "some rules found" true (List.length plain_rules > 0);
  check_int "same rule count" (List.length plain_rules) (List.length cipher_rules);
  (* the numeric profile of the rule sets is identical: sizes, supports and
     confidences match as multisets (items themselves are pseudonymized) *)
  let shape r =
    (List.length r.Mining.Apriori.antecedent,
     List.length r.Mining.Apriori.consequent,
     r.Mining.Apriori.support, r.Mining.Apriori.confidence)
  in
  check_bool "rule shapes identical" true
    (List.sort compare (List.map shape plain_rules)
     = List.sort compare (List.map shape cipher_rules));
  (* frequent itemsets have identical support spectra too *)
  let supports l =
    Mining.Apriori.frequent_itemsets params (transactions l)
    |> List.map (fun (i, s) -> (List.length i, s))
    |> List.sort compare
  in
  check_bool "itemset spectra identical" true
    (supports log = supports (Dpe.Encryptor.encrypt_log enc log))

(* cluster quality (not only membership) is identical on both sides *)
let test_silhouette_preserved () =
  let log =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 30; templates = 3; seed = "sil";
        caps = Workload.Gen_query.caps_full }
  in
  let scheme = Dpe.Selector.select M.Structure (Dpe.Log_profile.of_log log) in
  let enc = Dpe.Encryptor.create keyring scheme in
  let dp = M.matrix M.default_ctx M.Structure log in
  let dc =
    M.matrix M.default_ctx M.Structure
      (Dpe.Encryptor.encrypt_log enc log)
  in
  let lp = Mining.Hier.cut_k 3 dp and lc = Mining.Hier.cut_k 3 dc in
  Alcotest.(check (float 1e-12)) "silhouette identical"
    (Ablation.Silhouette.score dp lp) (Ablation.Silhouette.score dc lc)

(* session-level mining: DTW over per-query structure distances gives the
   same session clustering on ciphertext as on plaintext *)
let test_session_mining () =
  let sessions =
    Workload.Gen_query.skyserver_sessions
      { Workload.Gen_query.n = 12; templates = 3; seed = "sess";
        caps = Workload.Gen_query.caps_full }
      ~length:5
  in
  let truth = Array.of_list (List.map fst sessions) in
  let plain = List.map snd sessions in
  let flat = List.concat plain in
  let scheme = Dpe.Selector.select M.Structure (Dpe.Log_profile.of_log flat) in
  let enc = Dpe.Encryptor.create keyring scheme in
  let cipher = List.map (List.map (Dpe.Encryptor.encrypt_query enc)) plain in
  let dp = M.session_matrix plain and dc = M.session_matrix cipher in
  check_bool "session distances identical" true
    (Mining.Dist_matrix.max_abs_diff dp dc = 0.0);
  let lp = Mining.Hier.cut_k 3 dp and lc = Mining.Hier.cut_k 3 dc in
  check_bool "session clustering identical" true
    (Mining.Labeling.same_partition lp lc);
  check_bool "sessions cluster by template" true
    (Mining.Labeling.purity ~truth lp >= 0.7)

(* security: scheme floors dominate CryptDB, and attacks confirm it *)
let test_security_end_to_end () =
  let log =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 40; templates = 4; seed = "sec";
        caps = Workload.Gen_query.caps_full }
  in
  let profile = Dpe.Log_profile.of_log log in
  let plan = Cryptdb.Planner.replay log in
  List.iter
    (fun m ->
      let scheme = Dpe.Selector.select m profile in
      let cmp = Cryptdb.Baseline.compare_scheme ~profile scheme plan in
      check_int (M.to_string m ^ ": never weaker than CryptDB") 0
        cmp.Cryptdb.Baseline.worse)
    M.all;
  (* attack rates: structure scheme leaks less than token scheme *)
  let attack_rate m =
    let scheme = Dpe.Selector.select m profile in
    let enc = Dpe.Encryptor.create keyring scheme in
    let cipher = Dpe.Encryptor.encrypt_log enc log in
    let class_of a = Dpe.Scheme.ppe_of_const_class (Dpe.Scheme.class_for_attr scheme a) in
    (Attack.Harness.attack_log ~label:"x" ~class_of ~plain:log ~cipher)
      .Attack.Harness.overall.Attack.Attacks.rate
  in
  check_bool "PROB constants leak at most DET constants" true
    (attack_rate M.Structure <= attack_rate M.Token)

(* decryption: the key owner can invert everything the pipeline produced *)
let test_full_decryption () =
  let log =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 20; templates = 3; seed = "dec";
        caps = Workload.Gen_query.caps_for_measure M.Result }
  in
  let scheme = Dpe.Selector.select M.Result (Dpe.Log_profile.of_log log) in
  let enc = Dpe.Encryptor.create keyring scheme in
  let db = Workload.Gen_db.skyserver ~seed:"dec" ~rows:50 in
  let encdb = Dpe.Db_encryptor.encrypt_database enc db in
  List.iter
    (fun q ->
      match Dpe.Encryptor.decrypt_query enc (Dpe.Encryptor.encrypt_query enc q) with
      | Ok q' -> check_bool "query decrypts" true (Sqlir.Ast.equal_query q q')
      | Error e -> Alcotest.failf "decrypt error: %s" e)
    log;
  List.iter
    (fun rel ->
      let plain_schema = Minidb.Table.schema (Minidb.Database.find_exn db rel) in
      let enc_table =
        Minidb.Database.find_exn encdb (Dpe.Encryptor.encrypt_rel enc rel)
      in
      match Dpe.Db_encryptor.decrypt_table enc ~plain_schema enc_table with
      | Ok t ->
        check_bool (rel ^ " decrypts") true
          (Minidb.Table.rows t = Minidb.Table.rows (Minidb.Database.find_exn db rel))
      | Error e -> Alcotest.failf "table decrypt error: %s" e)
    (Minidb.Database.relations db)

let () =
  Alcotest.run "integration"
    [ ("pipeline",
       [ Alcotest.test_case "token" `Slow (test_pipeline M.Token);
         Alcotest.test_case "structure" `Slow (test_pipeline M.Structure);
         Alcotest.test_case "access-area" `Slow (test_pipeline M.Access);
         Alcotest.test_case "edit (extension)" `Slow (test_pipeline M.Edit);
         Alcotest.test_case "result" `Slow (test_pipeline M.Result) ]);
      ("mining",
       [ Alcotest.test_case "ground truth recovery" `Slow test_ground_truth_recovery;
         Alcotest.test_case "association rules (§V)" `Slow test_association_rules;
         Alcotest.test_case "silhouette preserved" `Slow test_silhouette_preserved;
         Alcotest.test_case "session mining (DTW)" `Slow test_session_mining ]);
      ("security",
       [ Alcotest.test_case "dominates CryptDB" `Slow test_security_end_to_end ]);
      ("decryption", [ Alcotest.test_case "full inversion" `Slow test_full_decryption ]) ]

(* Outsourced clustering of a SkyServer-style exploration log (the paper's
   motivating scenario): the data owner encrypts the log under the
   query-structure DPE scheme; the service provider clusters user sessions
   by query structure without ever seeing plaintext; the clusterings are
   provably identical.

   Run with:  dune exec examples/outsourced_clustering.exe *)

module M = Distance.Measure

let () =
  (* ----- data owner side ----- *)
  let params =
    { Workload.Gen_query.n = 60; templates = 4; seed = "icde-demo";
      caps = Workload.Gen_query.caps_full }
  in
  let labelled = Workload.Gen_query.skyserver_log_labelled params in
  let truth = Array.of_list (List.map fst labelled) in
  let log = List.map snd labelled in
  Format.printf "owner: generated %d queries from %d user-interest templates@."
    (List.length log) 4;

  let profile = Dpe.Log_profile.of_log log in
  let scheme = Dpe.Selector.select M.Structure profile in
  let keyring = Crypto.Keyring.of_passphrase "owner-master-secret" in
  let enc = Dpe.Encryptor.create keyring scheme in
  let cipher_log = Dpe.Encryptor.encrypt_log enc log in
  Format.printf "owner: encrypted log under the %s scheme (EncConst = %s)@.@."
    (M.to_string M.Structure) (Dpe.Scheme.const_summary scheme);

  (* ----- service provider side: ciphertexts only ----- *)
  let dc = M.matrix M.default_ctx M.Structure cipher_log in
  let k = 4 in
  let provider_clusters = Mining.Hier.cut_k k dc in
  let provider_kmedoids =
    Mining.Kmedoids.run { Mining.Kmedoids.k; max_iter = 50 } dc
  in
  let provider_outliers = Mining.Outlier.run { Mining.Outlier.p = 0.97; d = 0.85 } dc in
  Format.printf "provider: clustered %d encrypted queries (complete link, k=%d)@."
    (List.length cipher_log) k;

  (* ----- verification: rerun on plaintext and compare ----- *)
  let dp = M.matrix M.default_ctx M.Structure log in
  let owner_clusters = Mining.Hier.cut_k k dp in
  let owner_kmedoids = Mining.Kmedoids.run { Mining.Kmedoids.k; max_iter = 50 } dp in
  let owner_outliers = Mining.Outlier.run { Mining.Outlier.p = 0.97; d = 0.85 } dp in

  Format.printf "verify: max |d_cipher - d_plain| = %g@."
    (Mining.Dist_matrix.max_abs_diff dp dc);
  Format.printf "verify: complete-link partitions identical: %b@."
    (Mining.Labeling.same_partition owner_clusters provider_clusters);
  Format.printf "verify: k-medoids partitions identical:     %b@."
    (Mining.Labeling.same_partition owner_kmedoids provider_kmedoids);
  Format.printf "verify: outlier sets identical:             %b@.@."
    (owner_outliers = provider_outliers);

  (* how well does structure clustering recover the planted templates? *)
  Format.printf "cluster quality vs planted templates: ARI=%.3f purity=%.3f@.@."
    (Mining.Labeling.adjusted_rand_index truth provider_clusters)
    (Mining.Labeling.purity ~truth provider_clusters);

  (* show one decrypted representative per provider cluster *)
  let shown = Hashtbl.create 8 in
  List.iteri
    (fun i cq ->
      let c = provider_clusters.(i) in
      if not (Hashtbl.mem shown c) then begin
        Hashtbl.add shown c ();
        match Dpe.Encryptor.decrypt_query enc cq with
        | Ok q ->
          Format.printf "cluster %d representative: %s@." c (Sqlir.Printer.to_string q)
        | Error e -> Format.printf "cluster %d: decrypt error %s@." c e
      end)
    cipher_log

(* Outlier audit over an encrypted OLAP log plus homomorphic aggregation:
   a retailer shares (encrypted) query log AND database content so a
   provider can (a) flag anomalous queries with Knorr-Ng DB(p,d) outliers
   under the query-result distance, and (b) answer SUM aggregates over a
   Paillier column without the key.

   Run with:  dune exec examples/outlier_audit.exe *)

module M = Distance.Measure

let () =
  (* the retailer's database and a mostly-regular log with planted oddballs *)
  let db = Workload.Gen_db.retail ~seed:"audit" ~rows:120 in
  let regular =
    Workload.Gen_query.retail_log
      { Workload.Gen_query.n = 30; templates = 2; seed = "audit";
        caps = Workload.Gen_query.caps_for_measure M.Result }
  in
  let strays =
    List.map Sqlir.Parser.parse
      [ "SELECT saleid FROM sales WHERE amount > 4995";
        "SELECT storeid FROM stores WHERE size < 150" ]
  in
  let log = regular @ strays in

  let profile = Dpe.Log_profile.of_log log in
  let scheme = Dpe.Selector.select M.Result profile in
  let keyring = Crypto.Keyring.of_passphrase "retail-secret" in
  let enc = Dpe.Encryptor.create keyring scheme in
  let cipher_log = Dpe.Encryptor.encrypt_log enc log in
  let cipher_db = Dpe.Db_encryptor.encrypt_database enc db in
  Format.printf "owner: shared %d encrypted queries and %d encrypted rows@.@."
    (List.length cipher_log) (Minidb.Database.total_rows cipher_db);

  (* provider: result-distance outliers over ciphertext *)
  let ctx = M.ctx_with_db cipher_db in
  let dc = M.matrix ctx M.Result cipher_log in
  let params = { Mining.Outlier.p = 0.9; d = 0.95 } in
  let flagged = Mining.Outlier.outlier_indices params dc in
  Format.printf "provider: flagged query indices %s@."
    (String.concat ", " (List.map string_of_int flagged));

  (* owner verification on plaintext *)
  let dp = M.matrix (M.ctx_with_db db) M.Result log in
  let expected = Mining.Outlier.outlier_indices params dp in
  Format.printf "owner: plaintext run flags      %s  (identical: %b)@.@."
    (String.concat ", " (List.map string_of_int expected))
    (flagged = expected);
  List.iter
    (fun i ->
      Format.printf "  flagged: %s@." (Sqlir.Printer.to_string (List.nth log i)))
    flagged;

  (* provider: homomorphic SUM over the Paillier side-column.  The 'amount'
     column class depends on this log; aggregate a HOM-classified column *)
  (match
     List.find_opt
       (fun (_, p) -> p.Dpe.Scheme.cls = Dpe.Scheme.C_hom)
       (match scheme.Dpe.Scheme.consts with
        | Dpe.Scheme.Per_attribute (l, _) -> l
        | Dpe.Scheme.Global _ -> [])
   with
   | Some (attr, _) ->
     let ct, n = Dpe.Hom_aggregate.sum_ciphertext enc cipher_db ~rel:"sales" ~attr in
     Format.printf "@.provider: homomorphic SUM(%s) over %d rows (no key needed)@."
       attr n;
     Format.printf "owner: decrypts to %d@." (Dpe.Hom_aggregate.decrypt_sum enc ct)
   | None ->
     (* no SUM in this log: demonstrate on a standalone Paillier column *)
     let rng = Crypto.Keyring.drbg keyring "demo" in
     let pub, sk = Crypto.Paillier.keygen ~bits:512 rng in
     let amounts = Minidb.Table.column_values (Minidb.Database.find_exn db "sales") "amount" in
     let cts =
       List.filter_map
         (fun v -> match v with
            | Minidb.Value.Vint n -> Some (Crypto.Paillier.encrypt_int pub rng n)
            | _ -> None)
         amounts
     in
     let sum_ct = List.fold_left (Crypto.Paillier.add pub) (List.hd cts) (List.tl cts) in
     let plain_sum =
       List.fold_left
         (fun acc v -> match v with Minidb.Value.Vint n -> acc + n | _ -> acc)
         0 amounts
     in
     Format.printf "@.provider: folded %d Paillier ciphertexts into one SUM@."
       (List.length cts);
     Format.printf "owner: decrypts to %d (plaintext sum: %d, match: %b)@."
       (Crypto.Paillier.decrypt_int sk sum_ct) plain_sum
       (Crypto.Paillier.decrypt_int sk sum_ct = plain_sum))

(* Quickstart: encrypt a small SQL query log so that token-based query
   distances are preserved, and verify Definition 1 on it.

   Run with:  dune exec examples/quickstart.exe *)

let log_text =
  [ "SELECT name, age FROM users WHERE city = 'berlin' AND age > 30";
    "SELECT name FROM users WHERE city = 'berlin' AND age > 28";
    "SELECT product, price FROM sales WHERE price BETWEEN 10 AND 99";
    "SELECT product, price FROM sales WHERE price BETWEEN 15 AND 80";
    "SELECT COUNT(*) FROM users WHERE city = 'paris'" ]

let () =
  (* 1. parse the log *)
  let log = List.map Sqlir.Parser.parse log_text in

  (* 2. profile it and derive the DPE scheme for the token measure
        (KIT-DPE steps 2-3, Table I row 1) *)
  let profile = Dpe.Log_profile.of_log log in
  let scheme = Dpe.Selector.select Distance.Measure.Token profile in
  Format.printf "%a@." Dpe.Scheme.pp scheme;

  (* 3. encrypt the log *)
  let keyring = Crypto.Keyring.of_passphrase "correct horse battery staple" in
  let enc = Dpe.Encryptor.create keyring scheme in
  let cipher_log = Dpe.Encryptor.encrypt_log enc log in

  Format.printf "@.plaintext query : %s@." (List.hd log_text);
  Format.printf "encrypted query : %s@.@."
    (Sqlir.Printer.to_string (List.hd cipher_log));

  (* 4. the service provider computes distances on ciphertexts only *)
  let token = Distance.Measure.(compute default_ctx Token) in
  let d_plain = token (List.nth log 0) (List.nth log 1) in
  let d_cipher = token (List.nth cipher_log 0) (List.nth cipher_log 1) in
  Format.printf "d(Q0, Q1) on plaintext  = %.4f@." d_plain;
  Format.printf "d(Q0, Q1) on ciphertext = %.4f@.@." d_cipher;

  (* 5. verify the DPE property over every pair (Definition 1) *)
  let report = Dpe.Verdict.check_dpe enc Distance.Measure.Token log in
  Format.printf "%a@.@." Dpe.Verdict.pp_report report;

  (* 6. the key owner can invert everything *)
  (match Dpe.Encryptor.decrypt_query enc (List.hd cipher_log) with
   | Ok q ->
     Format.printf "decrypted back  : %s@." (Sqlir.Printer.to_string q)
   | Error e -> Format.printf "decryption failed: %s@." e)

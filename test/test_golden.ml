(* Golden ciphertexts: SHA-256 digests of everything the DPE encryptor
   emits for a fixed keyring — encrypted logs, bulk-encrypted databases
   at pool sizes 1 and 2, per-value and per-constant encryptions — one
   log and database per measure of [Measure.extended], plus one
   hand-built scheme that exercises every constant class (DET, PROB,
   OPE, both join modes, HOM).  The digests pin ciphertext bytes across
   versions: a refactor of the encryptor must leave every one of them
   unchanged.  Each section draws from a fresh encryptor, so its
   sequential DRBG stream starts at the same point in every run. *)

module Ast = Sqlir.Ast
module M = Distance.Measure
module Value = Minidb.Value

let keyring = Crypto.Keyring.create ~master:"golden-ciphertexts"

let log_for m =
  Workload.Gen_query.skyserver_log
    { Workload.Gen_query.n = 16; templates = 4; seed = "golden/" ^ M.to_string m;
      caps = Workload.Gen_query.caps_for_measure m }

let db_for m log = Workload.Gen_db.for_log ~seed:("golden/" ^ M.to_string m) ~rows:10 log

(* every constant class under one per-attribute policy, over the
   skyserver photoobj columns *)
let all_classes_scheme log =
  let base = Dpe.Selector.select M.Result (Dpe.Log_profile.of_log log) in
  let p cls = { Dpe.Scheme.cls; reason = "golden" } in
  { base with
    Dpe.Scheme.consts =
      Dpe.Scheme.Per_attribute
        ( [ ("objid", p (Dpe.Scheme.C_det_join "objid|specid"));
            ("ra", p Dpe.Scheme.C_ope);
            ("dec", p (Dpe.Scheme.C_ope_join "dec|z"));
            ("magnitude", p Dpe.Scheme.C_hom);
            ("class", p Dpe.Scheme.C_prob);
            ("flags", p Dpe.Scheme.C_det) ],
          Dpe.Scheme.C_det ) }

let cases =
  List.map
    (fun m ->
      let log = log_for m in
      let scheme = Dpe.Selector.select m (Dpe.Log_profile.of_log log) in
      (M.to_string m, scheme, log, db_for m log))
    M.extended
  @
  let log = log_for M.Result in
  [ ("all-classes", all_classes_scheme log, log, db_for M.Result log) ]

let fresh scheme = Dpe.Encryptor.create keyring scheme
let digest lines = Crypto.Sha256.hex (String.concat "\n" lines)

let failed = function
  | Dpe.Encryptor.Encrypt_error _ | Fault.Error.E _ -> true
  | _ -> false

let attempt f show =
  match f () with
  | v -> show v
  | exception e when failed e -> "!error"

let render_table t =
  let s = Minidb.Table.schema t in
  String.concat ","
    (s.Minidb.Schema.rel
     :: List.map
          (fun (c : Minidb.Schema.column) ->
            c.Minidb.Schema.name ^ ":" ^ Value.show_ty c.Minidb.Schema.ty)
          s.Minidb.Schema.columns)
  :: List.map
       (fun row -> String.concat "," (Array.to_list (Array.map Value.show row)))
       (Minidb.Table.rows t)

let render_db db = List.concat_map render_table (Minidb.Database.tables db)

(* [encrypt_log] query by query, so that one query the scheme cannot
   encrypt (a HOM column in a predicate) does not hide the others *)
let log_digest scheme log =
  let enc = fresh scheme in
  digest
    (List.map
       (fun q ->
         attempt (fun () -> Dpe.Encryptor.encrypt_log enc [ q ]) (fun qs ->
             String.concat "" (List.map Sqlir.Printer.to_string qs)))
       log)

(* [prewarm] fills the HOM noise pool first: ciphertexts must not
   depend on it *)
let db_digest ?(prewarm = false) ~domains scheme db =
  let pool = Parallel.Pool.create ~domains () in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      let enc = fresh scheme in
      if prewarm then ignore (Dpe.Db_encryptor.prewarm_hom_noise_r ~pool enc db);
      let cipher, errors = Dpe.Db_encryptor.encrypt_database_r ~pool enc db in
      digest (string_of_int (List.length errors) :: render_db cipher))

let columns db =
  List.concat_map
    (fun t ->
      let s = Minidb.Table.schema t in
      List.mapi (fun i name -> (t, i, name)) (Minidb.Schema.column_names s))
    (Minidb.Database.tables db)

let value_digest scheme db =
  let enc = fresh scheme in
  digest
    (List.concat_map
       (fun (t, i, attr) ->
         List.map
           (fun row ->
             attempt (fun () -> Dpe.Encryptor.encrypt_value enc ~attr row.(i)) Value.show)
           (Minidb.Table.rows t))
       (columns db))

let consts = [ Ast.Cint 0; Ast.Cint 7; Ast.Cint (-3); Ast.Cstring "x'y"; Ast.Cfloat 1.5 ]

let ctxs name =
  let a = Ast.attr name in
  [ Ast.In_predicate a; Ast.In_aggregate (Ast.Min, Some a);
    Ast.In_aggregate (Ast.Count, None); Ast.In_aggregate (Ast.Sum, Some a) ]

let const_digest scheme db =
  let enc = fresh scheme in
  digest
    (List.concat_map
       (fun (_, _, name) ->
         List.concat_map
           (fun ctx ->
             List.map
               (fun c ->
                 attempt
                   (fun () -> Dpe.Encryptor.encrypt_const enc ctx c)
                   Sqlir.Printer.const_to_string)
               consts)
           (ctxs name))
       (columns db))

(* recorded from the reference implementation; one row per case:
   (encrypt_log, encrypt_database at every pool size, encrypt_value,
   encrypt_const) *)
let expected =
  [ ("token",
     ("38350fab04c6e08dced029ca14b540d2f2590a0dbb6b89d0e92476d79dc8ea49",
      "dd7a6a844c355554cf08ac2602d021a77be46c9827815e4beea6d900d774e0d9",
      "f7f7f52c9a2b095b4bad5a122ca397d82db4034244a6aa5905c7b3ce75d884d6",
      "2967c44bd3a9ee251bad15948360447362cdff3766b21ebb7bb4968b94269f83"));
    ("structure",
     ("cd2c078a77d7d12d4419d731ad53638a8f82866aac057f6b83b9ed0f5479adcf",
      "53a92e1b924112e7c6930806081eabe9fcf9bfaf7581faf3bc31ffbcbcf19b0b",
      "fa0d7807f36ff2f474139ce526102568b8a6cff28d2a6f1103c12a2031ccbd46",
      "ea2493355051b0d4011e0d9539bbb77024170b834af630b8ec6484022e2c1897"));
    ("result",
     ("6297ba6d033b772fb39f1ba871a1495d346cb64c505d601e9e3aa347bf6338af",
      "b366bfb4e7ccc4475da77889145fba461579db3d08b381277b6819600afa3423",
      "e2a5a33a4a5d36c52ad2a00c75a03c525a31c8e718016e60d08beeb834faefbb",
      "2d6e4eee1a3f4d1abaef642236014916e76af3eebe47d997d79c26d01427185c"));
    ("access-area",
     ("fcc4fef6d7e89727a2773904fd7b855b4b47735dde1acca176fdaf13d0d6adfa",
      "5205701e82878e3a68e340f3780b541c0cebc8da97d9902b5790841886957257",
      "94d5514092b3f45fe1588c41160a5b8d9349d2adc309f5583b49fb0f23c8759d",
      "40d74081977c22e7103738fd34daebaa8bdcb7aaa55922c50257ac0894321d69"));
    ("edit",
     ("21f3913595536dfccb4a0479ac151cc191ad56aca5bd3a482a9a6fde834b592f",
      "0cf80a4bf47b65f268a0c5e20aeb350d0b879f4e2a0277526085b9f21672207d",
      "a7f8c76d779b05f393917b547b134f54d50d61c49308616ec076db0aa17e1446",
      "2967c44bd3a9ee251bad15948360447362cdff3766b21ebb7bb4968b94269f83"));
    ("clause",
     ("93b3c52b51b5939a0cc0d9fe10c4c0376b237277a4a5837e7f31a8c7aeb94462",
      "6871485dfb589d20306ef00db0924f6101f51fe70d5922839c9331c837924514",
      "5d9f0a4a992cf6038ba35a3f1f9e4e4d49842032dc8fa3cb36a260b6a0950448",
      "ea2493355051b0d4011e0d9539bbb77024170b834af630b8ec6484022e2c1897"));
    ("all-classes",
     ("ed1e839e4582cd7441010f6471634c8eda57050c17f6fb230c16dea3fff73818",
      "99d3f9951c8444a7375910d3438f3ac5ef042de5f9aa9014db1e2dedbcb5ce82",
      "4a1d04a4eddbf84fcfe65d169ead51ae02fcc2fc1e8ab2d081326224f8c8c6d8",
      "ee5d1729cf703ecc6d22e39de95e932c9b03a13fa472607723f1c9ed31dacf44")) ]

let test_digests () =
  let got =
    List.map
      (fun (name, scheme, log, db) ->
        let db1 = db_digest ~domains:1 scheme db in
        Alcotest.(check string) (name ^ ": pool size 2 = pool size 1") db1
          (db_digest ~domains:2 scheme db);
        Alcotest.(check string) (name ^ ": warm noise pool = cold") db1
          (db_digest ~prewarm:true ~domains:2 scheme db);
        (name, (log_digest scheme log, db1, value_digest scheme db, const_digest scheme db)))
      cases
  in
  Alcotest.(check (list (pair string (pair (pair string string) (pair string string)))))
    "digests"
    (List.map (fun (n, (l, d, v, c)) -> (n, ((l, d), (v, c)))) expected)
    (List.map (fun (n, (l, d, v, c)) -> (n, ((l, d), (v, c)))) got)

let test_roundtrip () =
  List.iter
    (fun (name, scheme, log, db) ->
      let enc = fresh scheme in
      List.iter
        (fun q ->
          match Dpe.Encryptor.decrypt_query enc (Dpe.Encryptor.encrypt_query enc q) with
          | exception e when failed e -> ()
          | Ok q' ->
            if not (Ast.equal_query q q') then
              Alcotest.failf "%s: query does not round-trip: %s" name
                (Sqlir.Printer.to_string q)
          | Error e -> Alcotest.failf "%s: decrypt_query: %s" name e)
        log;
      List.iter
        (fun (t, i, attr) ->
          List.iter
            (fun row ->
              match Dpe.Encryptor.encrypt_value enc ~attr row.(i) with
              | ct ->
                if Dpe.Encryptor.decrypt_value enc ~attr ct <> Ok row.(i) then
                  Alcotest.failf "%s: value of %s does not round-trip" name attr
              | exception e when failed e -> ())
            (Minidb.Table.rows t))
        (columns db);
      let cipher, _ = Dpe.Db_encryptor.encrypt_database_r enc db in
      List.iter
        (fun t ->
          let plain_schema = Minidb.Table.schema t in
          let rel = plain_schema.Minidb.Schema.rel in
          let ct = Minidb.Database.find_exn cipher (Dpe.Encryptor.encrypt_rel enc rel) in
          match Dpe.Db_encryptor.decrypt_table enc ~plain_schema ct with
          | Ok t' ->
            if Minidb.Table.rows t' <> Minidb.Table.rows t then
              Alcotest.failf "%s: table %s does not round-trip" name rel
          | Error e -> Alcotest.failf "%s: decrypt_table %s: %s" name rel e)
        (Minidb.Database.tables db))
    cases

(* ---- distances ---- *)

(* every cell [i < j] of a matrix, as exact hex floats *)
let matrix_digest dm =
  let n = Mining.Dist_matrix.size dm in
  digest
    (List.concat_map
       (fun i ->
         List.init (n - i - 1) (fun k ->
             Printf.sprintf "%h" (Mining.Dist_matrix.get dm i (i + k + 1))))
       (List.init n Fun.id))

(* the session fixture of test_integration: structure-measure DTW over
   12 sessions, plaintext and encrypted *)
let session_digests () =
  let sessions =
    Workload.Gen_query.skyserver_sessions
      { Workload.Gen_query.n = 12; templates = 3; seed = "sess";
        caps = Workload.Gen_query.caps_full }
      ~length:5
  in
  let plain = List.map snd sessions in
  let scheme =
    Dpe.Selector.select M.Structure (Dpe.Log_profile.of_log (List.concat plain))
  in
  let enc = Dpe.Encryptor.create (Crypto.Keyring.create ~master:"integration") scheme in
  let cipher = List.map (List.map (Dpe.Encryptor.encrypt_query enc)) plain in
  (matrix_digest (M.session_matrix plain), matrix_digest (M.session_matrix cipher))

(* the 300-query log the index golden rows are taken on (test_index) *)
let golden_log m =
  Workload.Gen_query.skyserver_log
    { Workload.Gen_query.n = 300; templates = 6; seed = "fp";
      caps = Workload.Gen_query.caps_for_measure m }

(* [Measure.matrix] over the log, whose every cell is [Measure.compute]
   of its pair; [compute] itself is checked on every 97th pair *)
let matrix_digest_checked m =
  let log = golden_log m in
  let qs = Array.of_list log and dm = M.matrix M.default_ctx m log in
  let n = Array.length qs in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if ((i * n) + j) mod 97 = 0 then begin
        let c = M.compute M.default_ctx m qs.(i) qs.(j) in
        if Int64.bits_of_float c <> Int64.bits_of_float (Mining.Dist_matrix.get dm i j)
        then Alcotest.failf "%s: compute differs from the matrix at (%d, %d)"
            (M.to_string m) i j
      end
    done
  done;
  matrix_digest dm

(* recorded from the per-pair definitions, before the measures moved
   onto the feature table *)
let expected_sessions =
  ("865ff6f089eff7aed935f5d4f5fb0b8194d4e0c6cb6085d8959ae671dc8e3f15",
   "865ff6f089eff7aed935f5d4f5fb0b8194d4e0c6cb6085d8959ae671dc8e3f15")

let expected_pairs =
  [ (M.Token, "7a3e178cfdf88d060f5b8b370900e1464dd3ed0df543eb4e9be5c63c81c0f6b5");
    (M.Structure, "914d7d89108a31afcb23b76400a834ee204b954269ae966bee6218c2083a83cb");
    (M.Access, "13c2d946d8fb86141cef64226b875ce42f683db5a03287b43d47c781e7e6707d");
    (M.Edit, "db77de229ab862c2f5339ffdb91843d1339257277d4a9556c534af9d74c004b4");
    (M.Clause, "98bcf3da916071c5506de150e4de4c37459f4ab595bc4f1ea7bd4a673f7be826") ]

let test_session_digests () =
  let plain, cipher = session_digests () in
  Alcotest.(check (pair string string)) "session DTW matrices" expected_sessions
    (plain, cipher)

let test_pair_digests () =
  Alcotest.(check (list (pair string string))) "every pair"
    (List.map (fun (m, d) -> (M.to_string m, d)) expected_pairs)
    (List.map (fun (m, _) -> (M.to_string m, matrix_digest_checked m)) expected_pairs)

(* one record build per distinct query (same printed text and AST) of
   each golden log, whatever part the measure reads *)
let test_builds_distinct () =
  Obs.set_enabled true;
  let builds = Obs.Registry.counter "kitdpe.distance.features.builds" in
  List.iter
    (fun (m, _) ->
      let log = golden_log m in
      let seen = Hashtbl.create 64 in
      List.iter (fun q -> Hashtbl.replace seen (Sqlir.Printer.to_string q, q) ()) log;
      let b0 = Obs.Metric.value builds in
      ignore (M.matrix M.default_ctx m log);
      Alcotest.(check int)
        (M.to_string m ^ ": builds = distinct queries")
        (Hashtbl.length seen)
        (Obs.Metric.value builds - b0))
    expected_pairs

let () =
  Alcotest.run "golden"
    [ ("ciphertexts",
       [ Alcotest.test_case "digests pinned" `Quick test_digests;
         Alcotest.test_case "decrypt round-trip" `Quick test_roundtrip ]);
      ("distances",
       [ Alcotest.test_case "session DTW pinned" `Quick test_session_digests;
         Alcotest.test_case "pair distances pinned" `Quick test_pair_digests;
         Alcotest.test_case "one build per distinct query" `Quick
           test_builds_distinct ]) ]

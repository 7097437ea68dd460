let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let hex = Crypto.Sha256.to_hex

(* ---- SHA-256 against FIPS 180-4 vectors ---- *)

let test_sha256_vectors () =
  check_str "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Crypto.Sha256.hex "");
  check_str "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Crypto.Sha256.hex "abc");
  check_str "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Crypto.Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_str "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Crypto.Sha256.hex (String.make 1_000_000 'a'));
  check_bool "55 and 56 byte messages differ" true
    (Crypto.Sha256.hex (String.make 55 'x') <> Crypto.Sha256.hex (String.make 56 'x'))

(* ---- HMAC against RFC 4231 ---- *)

let test_hmac_vectors () =
  check_str "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex (Crypto.Hmac.hmac_sha256 ~key:(String.make 20 '\x0b') "Hi There"));
  check_str "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex (Crypto.Hmac.hmac_sha256 ~key:"Jefe" "what do ya want for nothing?"));
  check_str "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (hex (Crypto.Hmac.hmac_sha256 ~key:(String.make 20 '\xaa') (String.make 50 '\xdd')));
  check_str "case 6 (131-byte key)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hex
       (Crypto.Hmac.hmac_sha256 ~key:(String.make 131 '\xaa')
          "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hkdf () =
  check_int "expand length" 42
    (String.length (Crypto.Hmac.hkdf_expand ~prk:(String.make 32 'k') ~info:"x" 42));
  let a = Crypto.Hmac.derive ~master:"m" ~purpose:"a" 32 in
  let b = Crypto.Hmac.derive ~master:"m" ~purpose:"b" 32 in
  let a' = Crypto.Hmac.derive ~master:"m" ~purpose:"a" 32 in
  check_bool "purposes independent" true (a <> b);
  check_str "deterministic" (hex a) (hex a');
  Alcotest.check_raises "too long"
    (Invalid_argument "Hmac.hkdf_expand: too long") (fun () ->
      ignore (Crypto.Hmac.hkdf_expand ~prk:"p" ~info:"i" (256 * 32)))

(* ---- AES-128 against FIPS 197 / NIST KATs ---- *)

let unhex s = Option.get (Crypto.Hex.decode s)

let test_aes_vectors () =
  let k = Crypto.Aes128.expand (unhex "000102030405060708090a0b0c0d0e0f") in
  check_str "fips C.1" "69c4e0d86a7b0430d8cdb78070b4c55a"
    (hex (Crypto.Aes128.encrypt_block k (unhex "00112233445566778899aabbccddeeff")));
  let k2 = Crypto.Aes128.expand (unhex "2b7e151628aed2a6abf7158809cf4f3c") in
  check_str "sp800-38a" "3ad77bb40d7a3660a89ecaf32466ef97"
    (hex (Crypto.Aes128.encrypt_block k2 (unhex "6bc1bee22e409f96e93d7e117393172a")));
  check_str "decrypt inverts" "6bc1bee22e409f96e93d7e117393172a"
    (hex (Crypto.Aes128.decrypt_block k2 (unhex "3ad77bb40d7a3660a89ecaf32466ef97")));
  Alcotest.check_raises "bad key size"
    (Invalid_argument "Aes128.expand: need 16-byte key") (fun () ->
      ignore (Crypto.Aes128.expand "short"))

let test_modes () =
  let key = Crypto.Aes128.expand (String.make 16 'k') in
  let iv = String.make 16 '\x01' in
  let msg = "counter mode works on any length, even this one (61 bytes)." in
  let ct = Crypto.Block_modes.ctr_transform key ~iv msg in
  check_bool "ct differs" true (ct <> msg);
  check_str "ctr self-inverse" msg (Crypto.Block_modes.ctr_transform key ~iv ct);
  let iv_edge = String.make 15 '\x00' ^ "\xff" in
  let long = String.make 64 'q' in
  check_str "counter carry roundtrip" long
    (Crypto.Block_modes.ctr_transform key ~iv:iv_edge
       (Crypto.Block_modes.ctr_transform key ~iv:iv_edge long))

(* ---- DRBG ---- *)

let test_drbg () =
  let a = Crypto.Drbg.create ~seed:"seed" in
  let b = Crypto.Drbg.create ~seed:"seed" in
  check_str "deterministic" (hex (Crypto.Drbg.generate a 32)) (hex (Crypto.Drbg.generate b 32));
  check_bool "stream advances" true
    (Crypto.Drbg.generate a 16 <> Crypto.Drbg.generate a 16);
  check_bool "seeds differ" true
    (Crypto.Drbg.generate (Crypto.Drbg.create ~seed:"other") 32
     <> Crypto.Drbg.generate (Crypto.Drbg.create ~seed:"seed") 32);
  let d = Crypto.Drbg.create ~seed:"s" in
  for _ = 1 to 100 do
    let v = Crypto.Drbg.uniform_int d 7 in
    check_bool "uniform_int range" true (v >= 0 && v < 7)
  done;
  let f = Crypto.Drbg.uniform_float d in
  check_bool "uniform_float range" true (f >= 0.0 && f < 1.0);
  let s1 = Crypto.Drbg.split d "x" and s2 = Crypto.Drbg.split d "x" in
  check_bool "splits differ (parent advanced)" true
    (Crypto.Drbg.generate s1 8 <> Crypto.Drbg.generate s2 8)

(* ---- PROB ---- *)

let test_prob () =
  let k = Crypto.Prob.key_of_master ~master:"m" ~purpose:"p" in
  let rng = Crypto.Drbg.create ~seed:"ivs" in
  let c1 = Crypto.Prob.encrypt k rng "hello" in
  let c2 = Crypto.Prob.encrypt k rng "hello" in
  check_bool "probabilistic" true (c1 <> c2);
  check_str "roundtrip" "hello" (Option.get (Crypto.Prob.decrypt k c1));
  check_str "roundtrip 2" "hello" (Option.get (Crypto.Prob.decrypt k c2));
  check_bool "tamper detected" true
    (Crypto.Prob.decrypt k (String.map (fun c -> Char.chr (Char.code c lxor 1)) c1) = None);
  check_bool "truncated rejected" true (Crypto.Prob.decrypt k "short" = None);
  check_bool "wrong key" true
    (Crypto.Prob.decrypt (Crypto.Prob.key_of_master ~master:"m2" ~purpose:"p") c1 = None);
  check_str "empty message" ""
    (Option.get (Crypto.Prob.decrypt k (Crypto.Prob.encrypt k rng "")))

(* ---- DET ---- *)

let test_det () =
  let k = Crypto.Det.key_of_master ~master:"m" ~purpose:"p" in
  check_str "deterministic" (hex (Crypto.Det.encrypt k "v")) (hex (Crypto.Det.encrypt k "v"));
  check_bool "distinct plaintexts" true (Crypto.Det.encrypt k "v" <> Crypto.Det.encrypt k "w");
  check_str "roundtrip" "value" (Option.get (Crypto.Det.decrypt k (Crypto.Det.encrypt k "value")));
  check_bool "corrupt rejected" true (Crypto.Det.decrypt k (String.make 20 'x') = None);
  check_bool "too short rejected" true (Crypto.Det.decrypt k "tiny" = None);
  check_int "token size" 16 (String.length (Crypto.Det.token k "anything"));
  let k2 = Crypto.Det.key_of_master ~master:"m" ~purpose:"other" in
  check_bool "purposes independent" true (Crypto.Det.encrypt k "v" <> Crypto.Det.encrypt k2 "v")

(* ---- OPE ---- *)

let small_ope =
  Crypto.Ope.create ~master:"m" ~purpose:"t"
    { Crypto.Ope.plain_bits = 12; cipher_bits = 24 }

let test_ope_unit () =
  check_int "params" 12 (fst (Crypto.Ope.params small_ope));
  check_int "max_plain" 4095 (Crypto.Ope.max_plain small_ope);
  let prev = ref (-1) in
  for m = 0 to 4095 do
    let c = Crypto.Ope.encrypt small_ope m in
    if c <= !prev then Alcotest.failf "not monotone at %d" m;
    prev := c
  done;
  check_int "deterministic" (Crypto.Ope.encrypt small_ope 100) (Crypto.Ope.encrypt small_ope 100);
  Alcotest.check_raises "out of domain"
    (Invalid_argument "Ope.encrypt: out of domain") (fun () ->
      ignore (Crypto.Ope.encrypt small_ope 4096));
  Alcotest.check_raises "negative"
    (Invalid_argument "Ope.encrypt: out of domain") (fun () ->
      ignore (Crypto.Ope.encrypt small_ope (-1)));
  Alcotest.check_raises "bad params"
    (Invalid_argument "Ope.create: invalid params") (fun () ->
      ignore
        (Crypto.Ope.create ~master:"m" ~purpose:"x"
           { Crypto.Ope.plain_bits = 30; cipher_bits = 20 }));
  check_bool "decrypt out of range" true (Crypto.Ope.decrypt small_ope (-1) = None);
  let other =
    Crypto.Ope.create ~master:"m" ~purpose:"u"
      { Crypto.Ope.plain_bits = 12; cipher_bits = 24 }
  in
  check_bool "purpose-dependent mapping" true
    (List.exists
       (fun m -> Crypto.Ope.encrypt small_ope m <> Crypto.Ope.encrypt other m)
       [ 0; 1; 17; 100; 4095 ])

let ope_properties =
  [ QCheck.Test.make ~name:"ope strictly monotone" ~count:500
      (QCheck.pair (QCheck.int_range 0 4095) (QCheck.int_range 0 4095))
      (fun (a, b) ->
        let ca = Crypto.Ope.encrypt small_ope a
        and cb = Crypto.Ope.encrypt small_ope b in
        compare ca cb = compare a b);
    QCheck.Test.make ~name:"ope decrypt inverts" ~count:500 (QCheck.int_range 0 4095)
      (fun m -> Crypto.Ope.decrypt small_ope (Crypto.Ope.encrypt small_ope m) = Some m);
    QCheck.Test.make ~name:"ope decrypt of non-image is sound" ~count:200
      (QCheck.int_range 0 ((1 lsl 24) - 1))
      (fun c ->
        match Crypto.Ope.decrypt small_ope c with
        | None -> true
        | Some m -> Crypto.Ope.encrypt small_ope m = c) ]

(* ---- OPE with hypergeometric splitting (Boldyreva-style ablation) ---- *)

let hgd_ope =
  Ablation.Ope_hgd.create ~master:"m" ~purpose:"t"
    { Ablation.Ope_hgd.plain_bits = 10; cipher_bits = 22 }

let test_ope_hgd_unit () =
  check_bool "lgamma(5) = ln 24" true
    (Float.abs (Ablation.Ope_hgd.lgamma 5.0 -. log 24.0) < 1e-9);
  check_bool "lgamma(0.5) = ln sqrt(pi)" true
    (Float.abs (Ablation.Ope_hgd.lgamma 0.5 -. (0.5 *. log Float.pi)) < 1e-9);
  check_bool "lgamma(1) = 0" true (Float.abs (Ablation.Ope_hgd.lgamma 1.0) < 1e-9);
  check_int "max_plain" 1023 (Ablation.Ope_hgd.max_plain hgd_ope);
  (* full-domain strict monotonicity *)
  let prev = ref (-1) in
  for m = 0 to 1023 do
    let c = Ablation.Ope_hgd.encrypt hgd_ope m in
    if c <= !prev then Alcotest.failf "hgd not monotone at %d" m;
    prev := c
  done;
  check_int "deterministic" (Ablation.Ope_hgd.encrypt hgd_ope 500)
    (Ablation.Ope_hgd.encrypt hgd_ope 500);
  Alcotest.check_raises "domain check"
    (Invalid_argument "Ope_hgd.encrypt: out of domain") (fun () ->
      ignore (Ablation.Ope_hgd.encrypt hgd_ope 1024));
  Alcotest.check_raises "params check"
    (Invalid_argument "Ope_hgd.create: invalid params") (fun () ->
      ignore (Ablation.Ope_hgd.create ~master:"m" ~purpose:"x"
                { Ablation.Ope_hgd.plain_bits = 30; cipher_bits = 40 }))

let ope_hgd_properties =
  [ QCheck.Test.make ~name:"hgd ope order-preserving" ~count:200
      (QCheck.pair (QCheck.int_range 0 1023) (QCheck.int_range 0 1023))
      (fun (a, b) ->
        compare (Ablation.Ope_hgd.encrypt hgd_ope a) (Ablation.Ope_hgd.encrypt hgd_ope b)
        = compare a b);
    QCheck.Test.make ~name:"hgd ope decrypt inverts" ~count:200
      (QCheck.int_range 0 1023)
      (fun m ->
        Ablation.Ope_hgd.decrypt hgd_ope (Ablation.Ope_hgd.encrypt hgd_ope m) = Some m);
    QCheck.Test.make ~name:"hgd decrypt of non-image is sound" ~count:100
      (QCheck.int_range 0 ((1 lsl 22) - 1))
      (fun c ->
        match Ablation.Ope_hgd.decrypt hgd_ope c with
        | None -> true
        | Some m -> Ablation.Ope_hgd.encrypt hgd_ope m = c) ]

(* ---- Paillier ---- *)

let paillier_keys =
  lazy
    (let rng = Crypto.Drbg.create ~seed:"paillier-test" in
     Crypto.Paillier.keygen ~bits:256 rng)

let test_paillier () =
  let pub, sk = Lazy.force paillier_keys in
  let rng = Crypto.Drbg.create ~seed:"enc" in
  let module N = Bignum.Bignat in
  check_int "roundtrip" 42
    (Crypto.Paillier.decrypt_int sk (Crypto.Paillier.encrypt_int pub rng 42));
  check_int "negative" (-7)
    (Crypto.Paillier.decrypt_int sk (Crypto.Paillier.encrypt_int pub rng (-7)));
  check_int "zero" 0
    (Crypto.Paillier.decrypt_int sk (Crypto.Paillier.encrypt_int pub rng 0));
  let ca = Crypto.Paillier.encrypt_int pub rng 1234 in
  let cb = Crypto.Paillier.encrypt_int pub rng (-234) in
  check_int "homomorphic add" 1000
    (Crypto.Paillier.decrypt_int sk (Crypto.Paillier.add pub ca cb));
  check_int "scalar mul" 3702
    (Crypto.Paillier.decrypt_int sk (Crypto.Paillier.scalar_mul pub ca 3));
  check_bool "probabilistic" true
    (not
       (N.equal
          (Crypto.Paillier.encrypt_int pub rng 5)
          (Crypto.Paillier.encrypt_int pub rng 5)));
  check_int "serialize roundtrip" 1234
    (Crypto.Paillier.decrypt_int sk
       (Crypto.Paillier.deserialize (Crypto.Paillier.serialize ca)));
  Alcotest.check_raises "plaintext too large"
    (Invalid_argument "Paillier.encrypt: m >= n") (fun () ->
      ignore (Crypto.Paillier.encrypt pub rng (Crypto.Paillier.modulus pub)))

(* the documented failure paths: tampering and key mismatch surface as
   [None] (symmetric schemes) or a typed [Paillier_mismatch] — never as
   silently wrong plaintext *)
let test_failure_paths () =
  let module N = Bignum.Bignat in
  (* DET: the SIV doubles as an auth tag, so a tampered-but-well-sized
     ciphertext must fail the recomputation check *)
  let dk = Crypto.Det.key_of_master ~master:"m" ~purpose:"p" in
  let dc = Crypto.Det.encrypt dk "value" in
  let flip s i = String.mapi (fun j c ->
      if i = j then Char.chr (Char.code c lxor 1) else c) s in
  check_bool "DET SIV mismatch rejected" true
    (Crypto.Det.decrypt dk (flip dc 0) = None);
  check_bool "DET body tamper rejected" true
    (Crypto.Det.decrypt dk (flip dc (String.length dc - 1)) = None);
  (* PROB: a truncated ciphertext loses part of its MAC *)
  let pk = Crypto.Prob.key_of_master ~master:"m" ~purpose:"p" in
  let pc = Crypto.Prob.encrypt pk (Crypto.Drbg.create ~seed:"fp") "payload" in
  check_bool "PROB truncation rejected" true
    (Crypto.Prob.decrypt pk (String.sub pc 0 (String.length pc / 2)) = None);
  (* Paillier: decrypting under the wrong key is detected whenever the
     ciphertext leaves the wrong key's residue group *)
  let pub, _ = Lazy.force paillier_keys in
  let _, sk_small =
    Crypto.Paillier.keygen ~bits:128 (Crypto.Drbg.create ~seed:"other-key")
  in
  let c = Crypto.Paillier.encrypt_int pub (Crypto.Drbg.create ~seed:"fp") 42 in
  (match Crypto.Paillier.decrypt sk_small c with
   | exception Fault.Error.E (Fault.Error.Paillier_mismatch _) -> ()
   | _ -> Alcotest.fail "wrong-key decrypt not detected");
  (* ... and a structurally valid plaintext outside the native int range
     is a mismatch, not a silent wrap-around *)
  let big = N.of_string "9000000000000000000" (* > max_int on 64-bit *) in
  let cbig = Crypto.Paillier.encrypt pub (Crypto.Drbg.create ~seed:"fp") big in
  match Crypto.Paillier.decrypt_int (snd (Lazy.force paillier_keys)) cbig with
  | exception Fault.Error.E (Fault.Error.Paillier_mismatch _) -> ()
  | _ -> Alcotest.fail "out-of-range plaintext not detected"

(* CRT decryption must agree with the lambda/mu reference on every
   ciphertext shape either path accepts — fresh, homomorphically
   combined, scalar-multiplied, serialized, and tampered-but-unit — and
   both must reject non-units and out-of-range values with the same
   typed error. *)
let test_crt_vs_lambda () =
  let module N = Bignum.Bignat in
  let module P = Crypto.Paillier in
  let pub, sk = Lazy.force paillier_keys in
  let rng = Crypto.Drbg.create ~seed:"crt-vs-lambda" in
  let n = P.modulus pub in
  let n2 = N.mul n n in
  let agree what c =
    check_str what (N.to_string (P.decrypt_lambda sk c))
      (N.to_string (P.decrypt sk c))
  in
  List.iter
    (fun m -> agree "fresh" (P.encrypt pub rng m))
    [ N.zero; N.one; N.of_int 424242; N.div n (N.of_int 2); N.sub n N.one ];
  let ca = P.encrypt_int pub rng 123456 and cb = P.encrypt_int pub rng 7890 in
  agree "hom add" (P.add pub ca cb);
  agree "scalar mul" (P.scalar_mul pub ca 37);
  agree "serialize roundtrip" (P.deserialize (P.serialize ca));
  (* tampered units: random values below n² that stay coprime to n
     decrypt to garbage, but the same garbage on both paths *)
  let gen = Crypto.Drbg.generate rng in
  let checked = ref 0 in
  while !checked < 10 do
    let c = N.random_below gen n2 in
    if (not (N.is_zero c)) && N.equal (N.gcd c n) N.one then begin
      agree "tampered unit" c;
      incr checked
    end
  done;
  check_str "crt decrypts what encrypt produced" "99"
    (N.to_string (P.decrypt sk (P.encrypt pub rng (N.of_int 99))));
  let both_reject what c =
    (match P.decrypt_lambda sk c with
     | exception Fault.Error.E (Fault.Error.Paillier_mismatch _) -> ()
     | _ -> Alcotest.failf "%s: lambda path accepted" what);
    match P.decrypt sk c with
    | exception Fault.Error.E (Fault.Error.Paillier_mismatch _) -> ()
    | _ -> Alcotest.failf "%s: crt path accepted" what
  in
  both_reject "zero ciphertext" N.zero;
  both_reject "multiple of n" n;
  both_reject "c = n^2" n2;
  both_reject "c > n^2" (N.add n2 N.one)

(* The noise pool is a pure cache: ciphertexts are bit-identical with
   the pool warm, cold, partially filled, or absent, because hits and
   misses derive the same r from the same per-label DRBG. *)
let test_noise_pool () =
  let module N = Bignum.Bignat in
  let module P = Crypto.Paillier in
  let pub, sk = Lazy.force paillier_keys in
  let label_rng key = Crypto.Drbg.create ~seed:("pool-" ^ key) in
  let keys = List.init 8 (fun i -> Printf.sprintf "t/%d/a" i) in
  let encrypt_with ?pool k =
    P.encrypt_pooled ?pool pub ~key:k (label_rng k) (N.of_int 99)
  in
  let reference = List.map (fun k -> encrypt_with k) keys in
  (* warm pool: every label prefilled, every encryption a hit *)
  let pool = P.pool_create () in
  List.iter (fun k -> P.noise_fill pool pub ~key:k (label_rng k)) keys;
  check_int "depth after fill" 8 (P.pool_depth pool);
  List.iter2
    (fun k r -> check_str "warm pool ≡ pool-off" (N.to_string r)
        (N.to_string (encrypt_with ~pool k)))
    keys reference;
  check_int "entries consumed" 0 (P.pool_depth pool);
  (* partial pool: only half the labels prefilled; misses recompute *)
  let pool2 = P.pool_create ~capacity:4 () in
  List.iteri
    (fun i k -> if i mod 2 = 0 then P.noise_fill pool2 pub ~key:k (label_rng k))
    keys;
  check_int "partial depth" 4 (P.pool_depth pool2);
  List.iter2
    (fun k r -> check_str "partial pool ≡ pool-off" (N.to_string r)
        (N.to_string (encrypt_with ~pool:pool2 k)))
    keys reference;
  (* refilling a pooled label is a no-op and capacity bounds depth *)
  let pool3 = P.pool_create ~capacity:2 () in
  List.iter (fun k -> P.noise_fill pool3 pub ~key:k (label_rng k)) keys;
  List.iter (fun k -> P.noise_fill pool3 pub ~key:k (label_rng k)) keys;
  check_int "capacity respected" 2 (P.pool_depth pool3);
  Alcotest.check_raises "capacity < 1"
    (Invalid_argument "Paillier.pool_create: capacity < 1") (fun () ->
      ignore (P.pool_create ~capacity:0 ()));
  check_str "pooled ciphertext decrypts" "99"
    (N.to_string (P.decrypt sk (List.hd reference)))

let paillier_properties =
  [ QCheck.Test.make ~name:"paillier sum homomorphism" ~count:25
      (QCheck.pair (QCheck.int_range (-10000) 10000) (QCheck.int_range (-10000) 10000))
      (fun (a, b) ->
        let pub, sk = Lazy.force paillier_keys in
        let rng = Crypto.Drbg.create ~seed:(Printf.sprintf "p%d-%d" a b) in
        let ca = Crypto.Paillier.encrypt_int pub rng a in
        let cb = Crypto.Paillier.encrypt_int pub rng b in
        Crypto.Paillier.decrypt_int sk (Crypto.Paillier.add pub ca cb) = a + b) ]

(* ---- Hex / Join / Keyring ---- *)

let test_hex () =
  check_str "encode" "00ff10" (Crypto.Hex.encode "\x00\xff\x10");
  check_str "decode" "\x00\xff\x10" (Option.get (Crypto.Hex.decode "00ff10"));
  check_bool "odd length" true (Crypto.Hex.decode "abc" = None);
  check_bool "bad char" true (Crypto.Hex.decode "zz" = None);
  check_str "empty" "" (Option.get (Crypto.Hex.decode ""))

let test_join_enc () =
  check_str "canonical group sorted" "a|b|c"
    (Crypto.Join_enc.canonical_group [ "c"; "a"; "b"; "a" ]);
  let k1 = Crypto.Join_enc.det_key ~master:"m" "g1" in
  let k2 = Crypto.Join_enc.det_key ~master:"m" "g1" in
  check_str "same group same key"
    (hex (Crypto.Det.encrypt k1 "v")) (hex (Crypto.Det.encrypt k2 "v"));
  let k3 = Crypto.Join_enc.det_key ~master:"m" "g2" in
  check_bool "distinct groups" true (Crypto.Det.encrypt k1 "v" <> Crypto.Det.encrypt k3 "v")

let test_keyring () =
  let kr = Crypto.Keyring.create ~master:"master" in
  let d1 = Crypto.Keyring.det kr "a" and d2 = Crypto.Keyring.det kr "a" in
  check_str "det stable" (hex (Crypto.Det.encrypt d1 "v")) (hex (Crypto.Det.encrypt d2 "v"));
  let kr2 = Crypto.Keyring.of_passphrase "hunter2" in
  let kr3 = Crypto.Keyring.of_passphrase "hunter2" in
  check_str "passphrase stable" (hex (Crypto.Keyring.master kr2)) (hex (Crypto.Keyring.master kr3));
  check_bool "passphrase stretched" true (Crypto.Keyring.master kr2 <> "hunter2");
  let r1 = Crypto.Keyring.drbg kr "x" and r2 = Crypto.Keyring.drbg kr "x" in
  check_str "drbg purpose deterministic"
    (hex (Crypto.Drbg.generate r1 16)) (hex (Crypto.Drbg.generate r2 16))

(* tenant isolation (DESIGN.md §14): namespace derivation is stable per
   namespace and independent across namespaces *)
let test_keyring_derive () =
  let kr = Crypto.Keyring.create ~master:"master" in
  let a1 = Crypto.Keyring.derive kr "tenant-a" in
  let a2 = Crypto.Keyring.derive kr "tenant-a" in
  let b = Crypto.Keyring.derive kr "tenant-b" in
  let probe k = hex (Crypto.Det.encrypt (Crypto.Keyring.det k "col") "v") in
  check_str "same namespace, same key universe" (probe a1) (probe a2);
  check_bool "distinct namespaces diverge" true (probe a1 <> probe b);
  check_bool "derived differs from parent" true (probe a1 <> probe kr);
  check_bool "nested derive diverges" true
    (probe (Crypto.Keyring.derive a1 "x") <> probe (Crypto.Keyring.derive b "x"))

let roundtrip_properties =
  let arb_msg = QCheck.string_of_size (QCheck.Gen.int_range 0 200) in
  [ QCheck.Test.make ~name:"prob roundtrip" ~count:100 arb_msg (fun msg ->
        let k = Crypto.Prob.key_of_master ~master:"m" ~purpose:"q" in
        let rng = Crypto.Drbg.create ~seed:msg in
        Crypto.Prob.decrypt k (Crypto.Prob.encrypt k rng msg) = Some msg);
    QCheck.Test.make ~name:"det roundtrip" ~count:100 arb_msg (fun msg ->
        let k = Crypto.Det.key_of_master ~master:"m" ~purpose:"q" in
        Crypto.Det.decrypt k (Crypto.Det.encrypt k msg) = Some msg);
    QCheck.Test.make ~name:"ctr roundtrip" ~count:100 arb_msg (fun msg ->
        let k = Crypto.Aes128.expand (String.make 16 'K') in
        let iv = String.make 16 '\x42' in
        Crypto.Block_modes.ctr_transform k ~iv
          (Crypto.Block_modes.ctr_transform k ~iv msg)
        = msg);
    QCheck.Test.make ~name:"hex roundtrip" ~count:100 arb_msg (fun msg ->
        Crypto.Hex.decode (Crypto.Hex.encode msg) = Some msg) ]

let () =
  Alcotest.run "crypto"
    [ ("sha256", [ Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors ]);
      ("hmac",
       [ Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_vectors;
         Alcotest.test_case "hkdf" `Quick test_hkdf ]);
      ("aes",
       [ Alcotest.test_case "FIPS/NIST vectors" `Quick test_aes_vectors;
         Alcotest.test_case "modes" `Quick test_modes ]);
      ("drbg", [ Alcotest.test_case "determinism and ranges" `Quick test_drbg ]);
      ("prob", [ Alcotest.test_case "PROB scheme" `Quick test_prob ]);
      ("det", [ Alcotest.test_case "DET scheme" `Quick test_det ]);
      ("ope",
       Alcotest.test_case "OPE unit" `Quick test_ope_unit
       :: List.map (fun t -> QCheck_alcotest.to_alcotest t) ope_properties);
      ("ope-hgd",
       Alcotest.test_case "HGD OPE unit" `Slow test_ope_hgd_unit
       :: List.map (fun t -> QCheck_alcotest.to_alcotest t) ope_hgd_properties);
      ("paillier",
       Alcotest.test_case "Paillier unit" `Quick test_paillier
       :: Alcotest.test_case "failure paths" `Quick test_failure_paths
       :: Alcotest.test_case "CRT vs lambda" `Quick test_crt_vs_lambda
       :: Alcotest.test_case "noise pool" `Quick test_noise_pool
       :: List.map (fun t -> QCheck_alcotest.to_alcotest t) paillier_properties);
      ("misc",
       [ Alcotest.test_case "hex" `Quick test_hex;
         Alcotest.test_case "join keys" `Quick test_join_enc;
         Alcotest.test_case "keyring" `Quick test_keyring;
         Alcotest.test_case "keyring derive" `Quick test_keyring_derive ]);
      ("roundtrips", List.map (fun t -> QCheck_alcotest.to_alcotest t) roundtrip_properties) ]

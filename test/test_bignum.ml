module N = Bignum.Bignat

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let n = N.of_string
let s = N.to_string

(* Deterministic byte source for primality tests: a splitmix64-style
   mixer keyed by the seed string.  No Digest (MD5, lint RNG01) and no
   ambient state — same seed, same stream, on every run. *)
let seeded_rng seed =
  let state =
    ref (String.fold_left (fun h c -> ((h * 1000003) + Char.code c) land max_int) 0x9E3779B9 seed)
  in
  let next () =
    (* splitmix-style avalanche on a 62-bit state (constants fit OCaml's
       63-bit native int; taken from the xorshift64* family) *)
    let z = (!state + 0x2545F4914F6CDD1D) land max_int in
    state := z;
    let z = ((z lxor (z lsr 30)) * 0x369DEA0F31A53F85) land max_int in
    let z = ((z lxor (z lsr 27)) * 0x27D4EB2F165667C5) land max_int in
    z lxor (z lsr 31)
  in
  fun k ->
    let b = Bytes.create k in
    for i = 0 to k - 1 do
      Bytes.set b i (Char.chr (next () land 0xff))
    done;
    Bytes.to_string b

(* ---- unit tests ---- *)

let test_conversions () =
  check_str "zero" "0" (s N.zero);
  check_str "one" "1" (s N.one);
  check_int "of_int/to_int" 123456789 (N.to_int (N.of_int 123456789));
  check_str "of_string" "98765432109876543210" (s (n "98765432109876543210"));
  check_bool "to_int_opt overflow" true
    (N.to_int_opt (n "123456789012345678901234567890") = None);
  check_int "to_int_opt small" 42 (Option.get (N.to_int_opt (N.of_int 42)));
  Alcotest.check_raises "of_int negative" (Invalid_argument "Bignat.of_int: negative")
    (fun () -> ignore (N.of_int (-1)));
  Alcotest.check_raises "of_string empty" (Invalid_argument "Bignat.of_string: empty")
    (fun () -> ignore (n ""))

let test_addition () =
  check_str "small" "579" (s (N.add (n "123") (n "456")));
  check_str "carry chain" "10000000000000000000000000000000"
    (s (N.add (n "9999999999999999999999999999999") (n "1")));
  check_str "asymmetric" "100000000000000000010"
    (s (N.add (n "100000000000000000000") (n "10")));
  check_str "add_int" "1010" (s (N.add_int (n "1000") 10))

let test_subtraction () =
  check_str "small" "333" (s (N.sub (n "456") (n "123")));
  check_str "borrow chain" "9999999999999999999999999999999"
    (s (N.sub (n "10000000000000000000000000000000") (n "1")));
  check_str "self" "0" (s (N.sub (n "777") (n "777")));
  Alcotest.check_raises "negative result"
    (Invalid_argument "Bignat.sub: would be negative") (fun () ->
      ignore (N.sub (n "1") (n "2")))

let test_multiplication () =
  check_str "known product"
    "121932631137021795226185032733622923332237463801111263526900"
    (s (N.mul (n "123456789012345678901234567890") (n "987654321098765432109876543210")));
  check_str "by zero" "0" (s (N.mul (n "123456") N.zero));
  check_str "by one" "123456" (s (N.mul (n "123456") N.one));
  (* exercise the Karatsuba path with ~100-limb operands *)
  let big_a = n (String.concat "" (List.init 30 (fun _ -> "1234567890"))) in
  let big_b = n (String.concat "" (List.init 30 (fun _ -> "9876543210"))) in
  let product = N.mul big_a big_b in
  let q, r = N.divmod product big_a in
  check_bool "karatsuba consistent with divmod" true
    (N.equal q big_b && N.is_zero r)

let test_division () =
  let q, r = N.divmod (n "987654321098765432109876543210") (n "123456789012345678901234567890") in
  check_str "quotient" "8" (s q);
  check_str "remainder" "9000000000900000000090" (s r);
  let q, r = N.divmod (n "100") (n "7") in
  check_int "q" 14 (N.to_int q);
  check_int "r" 2 (N.to_int r);
  check_str "exact" "500000000000000000000"
    (s (N.div (n "1000000000000000000000") (n "2")));
  check_str "rem single limb" "1" (s (N.rem (n "1000000000000000000000001") (n "10")));
  Alcotest.check_raises "division by zero" Division_by_zero (fun () ->
      ignore (N.divmod (n "5") N.zero));
  (* the Algorithm D add-back case needs u < v at equal limb counts *)
  let q, r = N.divmod (n "340282366920938463463374607431768211455") (n "340282366920938463463374607431768211456") in
  check_bool "a < b" true (N.is_zero q && N.equal r (n "340282366920938463463374607431768211455"))

let test_pow_and_shift () =
  check_str "2^100" "1267650600228229401496703205376" (s (N.pow N.two 100));
  check_str "shift_left" "1267650600228229401496703205376" (s (N.shift_left N.one 100));
  check_str "shift_right inverse" "1" (s (N.shift_right (N.shift_left N.one 100) 100));
  check_str "7^0" "1" (s (N.pow (n "7") 0));
  check_int "bit_length 0" 0 (N.bit_length N.zero);
  check_int "bit_length 1" 1 (N.bit_length N.one);
  check_int "bit_length 2^100" 101 (N.bit_length (N.shift_left N.one 100));
  check_bool "testbit" true (N.testbit (N.shift_left N.one 77) 77);
  check_bool "testbit false" false (N.testbit (N.shift_left N.one 77) 76)

let test_mod_arith () =
  let m = n "1000000007" in
  check_str "mod_pow" "976371285" (s (N.mod_pow N.two (N.of_int 100) m));
  check_str "mod_pow zero exp" "1" (s (N.mod_pow (n "12345") N.zero m));
  check_str "mod one" "0" (s (N.mod_pow (n "5") (n "3") N.one));
  check_str "mod_add wrap" "0" (s (N.mod_add (n "1000000006") N.one m));
  check_str "mod_sub wrap" "1000000006" (s (N.mod_sub N.zero N.one m));
  check_str "mod_mul" "49" (s (N.mod_mul (n "7") (n "7") m));
  (* Fermat's little theorem *)
  check_str "fermat" "1" (s (N.mod_pow (n "31337") (N.sub m N.one) m))

let test_gcd_inverse () =
  check_int "gcd" 6 (N.to_int (N.gcd (n "48") (n "18")));
  check_int "gcd coprime" 1 (N.to_int (N.gcd (n "17") (n "31")));
  check_str "lcm" "144" (s (N.lcm (n "48") (n "18")));
  check_int "inverse of 3 mod 7" 5 (N.to_int (Option.get (N.mod_inv (n "3") (n "7"))));
  check_bool "no inverse" true (N.mod_inv (n "6") (n "9") = None);
  let m = n "1000000007" in
  let a = n "123456789" in
  let inv = Option.get (N.mod_inv a m) in
  check_bool "inverse verifies" true (N.is_one (N.mod_mul a inv m));
  (* large modulus *)
  let m2 = N.mul m (n "998244353") in
  let inv2 = Option.get (N.mod_inv a m2) in
  check_bool "inverse big modulus" true (N.is_one (N.mod_mul a inv2 m2))

let test_bytes () =
  check_str "of_bytes" "4660" (s (N.of_bytes_be "\x12\x34"));
  check_str "to_bytes of zero" "" (N.to_bytes_be N.zero);
  check_str "roundtrip" "18591708106338011145"
    (s (N.of_bytes_be (N.to_bytes_be (n "18591708106338011145"))));
  check_str "padded" "\x00\x00\x12\x34" (N.to_bytes_be_pad 4 (n "4660"));
  Alcotest.check_raises "pad too small"
    (Invalid_argument "Bignat.to_bytes_be_pad: too large") (fun () ->
      ignore (N.to_bytes_be_pad 1 (n "65536")))

let test_primality () =
  let rng = seeded_rng "prime-tests" in
  let prime p = N.is_probable_prime rng (n p) in
  check_bool "2" true (prime "2");
  check_bool "97" true (prime "97");
  check_bool "561 (Carmichael)" false (prime "561");
  check_bool "1105 (Carmichael)" false (prime "1105");
  check_bool "2^61-1 (Mersenne)" true (prime "2305843009213693951");
  check_bool "2^127-1 (Mersenne)" true (prime "170141183460469231731687303715884105727");
  check_bool "0" false (prime "0");
  check_bool "1" false (prime "1");
  check_bool "even composite" false (prime "100000000000000000000");
  check_bool "product of mersennes" false
    (N.is_probable_prime rng (N.mul (n "2305843009213693951") (n "2305843009213693951")))

let test_generate_prime () =
  let rng = seeded_rng "prime-gen" in
  List.iter
    (fun bits ->
      let p = N.generate_prime rng bits in
      check_int (Printf.sprintf "%d-bit prime size" bits) bits (N.bit_length p);
      check_bool "is prime" true (N.is_probable_prime rng p);
      check_bool "odd" true (not (N.is_even p)))
    [ 16; 32; 64; 128 ]

let test_montgomery () =
  let rng = seeded_rng "mont" in
  check_bool "even modulus rejected" true (N.mont_create (n "100") = None);
  check_bool "tiny modulus rejected" true (N.mont_create N.one = None);
  let m = n "1000000007" in
  let ctx = Option.get (N.mont_create m) in
  check_str "matches mod_pow" (s (N.mod_pow N.two (N.of_int 100) m))
    (s (N.mont_pow ctx N.two (N.of_int 100)));
  check_str "zero exponent" "1" (s (N.mont_pow ctx (n "12345") N.zero));
  check_str "base above modulus reduced" (s (N.mod_pow (n "99999999999") (n "77") m))
    (s (N.mont_pow ctx (n "99999999999") (n "77")));
  for _ = 1 to 30 do
    let m = N.add (N.shift_left (N.random_bits rng 120) 1) N.one in
    if N.compare m (N.of_int 3) >= 0 then begin
      let ctx = Option.get (N.mont_create m) in
      let b = N.random_below rng m and e = N.random_bits rng 40 in
      if not (N.equal (N.mod_pow b e m) (N.mont_pow ctx b e)) then
        Alcotest.failf "montgomery mismatch at m=%s" (N.to_string m)
    end
  done

let test_mont_window () =
  (* The three exponentiation paths — fixed-window Montgomery
     ([mont_pow], what [mod_pow] now delegates to for odd moduli), the
     bit-at-a-time Montgomery reference ([mont_pow_binary]) and the
     division-based reference ([mod_pow_binary]) — must agree on inputs
     spanning limb boundaries (base 2^30: moduli of 29..31 and 59..61
     bits) and window boundaries (the window width switches at 16, 64
     and 640 exponent bits; exponent sizes straddle multiples of every
     window width). *)
  let rng = seeded_rng "mont-window" in
  let mod_bits = [ 5; 29; 30; 31; 59; 60; 61; 90; 121; 240; 521 ] in
  let exp_bits =
    [ 0; 1; 2; 3; 4; 5; 7; 8; 15; 16; 17; 20; 24; 31; 32; 33; 63; 64; 65; 127;
      128; 129; 512; 640; 641 ]
  in
  let odd_modulus mb =
    let m = N.add (N.shift_left N.one (mb - 1)) (N.random_bits rng (mb - 1)) in
    if N.is_even m then N.add m N.one else m
  in
  let exponent eb =
    if eb = 0 then N.zero
    else N.add (N.shift_left N.one (eb - 1)) (N.random_bits rng (eb - 1))
  in
  List.iter
    (fun mb ->
      let m = odd_modulus mb in
      let ctx = Option.get (N.mont_create m) in
      List.iter
        (fun eb ->
          let e = exponent eb in
          let b = N.random_below rng m in
          let reference = N.mod_pow_binary b e m in
          if not (N.equal (N.mont_pow ctx b e) reference) then
            Alcotest.failf "windowed mont_pow mismatch at m=%s e=%s" (s m) (s e);
          if not (N.equal (N.mont_pow_binary ctx b e) reference) then
            Alcotest.failf "binary mont_pow mismatch at m=%s e=%s" (s m) (s e);
          if not (N.equal (N.mod_pow b e m) reference) then
            Alcotest.failf "mod_pow delegation mismatch at m=%s e=%s" (s m) (s e))
        exp_bits)
    mod_bits;
  (* edge bases: zero, one, congruent to zero, above the modulus *)
  let m = odd_modulus 121 in
  let ctx = Option.get (N.mont_create m) in
  let e = exponent 65 in
  List.iter
    (fun b ->
      let reference = N.mod_pow_binary b e m in
      check_str "edge base windowed" (s reference) (s (N.mont_pow ctx b e));
      check_str "edge base mod_pow" (s reference) (s (N.mod_pow b e m)))
    [ N.zero; N.one; m; N.add m (N.of_int 5); N.mul m (N.of_int 7); N.sub m N.one ];
  (* even moduli keep the division-based path and still agree *)
  let me = N.shift_left (odd_modulus 60) 1 in
  let b = N.random_below rng me in
  check_str "even modulus" (s (N.mod_pow_binary b e me)) (s (N.mod_pow b e me))

let test_random_below () =
  let rng = seeded_rng "below" in
  let bound = n "1000" in
  for _ = 1 to 50 do
    let v = N.random_below rng bound in
    check_bool "in range" true (N.compare v bound < 0)
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Bignat.random_below: zero bound") (fun () ->
      ignore (N.random_below rng N.zero))

(* ---- properties ---- *)

let prop name count arb f = QCheck.Test.make ~name ~count arb f

let gen_bignat =
  QCheck.Gen.(
    map
      (fun ds ->
        let str = String.concat "" (List.map string_of_int ds) in
        N.of_string (if str = "" then "0" else str))
      (list_size (int_range 1 20) (int_range 0 9)))

let arb_bignat = QCheck.make ~print:N.to_string gen_bignat

let arb_pos =
  QCheck.make ~print:N.to_string
    QCheck.Gen.(map (fun x -> N.add_int x 1) gen_bignat)

let properties =
  [ prop "add commutative" 200 (QCheck.pair arb_bignat arb_bignat)
      (fun (a, b) -> N.equal (N.add a b) (N.add b a));
    prop "add associative" 200 (QCheck.triple arb_bignat arb_bignat arb_bignat)
      (fun (a, b, c) -> N.equal (N.add (N.add a b) c) (N.add a (N.add b c)));
    prop "mul commutative" 200 (QCheck.pair arb_bignat arb_bignat)
      (fun (a, b) -> N.equal (N.mul a b) (N.mul b a));
    prop "mul distributes" 100 (QCheck.triple arb_bignat arb_bignat arb_bignat)
      (fun (a, b, c) ->
        N.equal (N.mul a (N.add b c)) (N.add (N.mul a b) (N.mul a c)));
    prop "divmod invariant" 300 (QCheck.pair arb_bignat arb_pos)
      (fun (a, b) ->
        let q, r = N.divmod a b in
        N.equal a (N.add (N.mul q b) r) && N.compare r b < 0);
    prop "sub/add roundtrip" 200 (QCheck.pair arb_bignat arb_bignat)
      (fun (a, b) -> N.equal (N.sub (N.add a b) b) a);
    prop "string roundtrip" 200 arb_bignat
      (fun a -> N.equal a (N.of_string (N.to_string a)));
    prop "bytes roundtrip" 200 arb_bignat
      (fun a -> N.equal a (N.of_bytes_be (N.to_bytes_be a)));
    prop "shift roundtrip" 200 (QCheck.pair arb_bignat (QCheck.int_range 0 200))
      (fun (a, k) -> N.equal a (N.shift_right (N.shift_left a k) k));
    prop "compare antisymmetric" 200 (QCheck.pair arb_bignat arb_bignat)
      (fun (a, b) -> N.compare a b = - (N.compare b a));
    prop "gcd divides" 100 (QCheck.pair arb_pos arb_pos)
      (fun (a, b) ->
        let g = N.gcd a b in
        N.is_zero (N.rem a g) && N.is_zero (N.rem b g));
    prop "mod_pow matches naive" 50
      (QCheck.triple (QCheck.int_range 0 50) (QCheck.int_range 0 10) (QCheck.int_range 2 1000))
      (fun (b, e, m) ->
        let nb = N.of_int b and nm = N.of_int m in
        N.equal (N.mod_pow nb (N.of_int e) nm) (N.rem (N.pow nb e) nm));
    prop "mod_inv correct when coprime" 100 (QCheck.pair arb_pos arb_pos)
      (fun (a, m) ->
        let m = N.add_int m 1 in
        match N.mod_inv a m with
        | None -> not (N.is_one (N.gcd a m)) || N.is_one m
        | Some x -> N.is_one m || N.is_one (N.mod_mul (N.rem a m) x m)) ]

let () =
  Alcotest.run "bignum"
    [ ("unit",
       [ Alcotest.test_case "conversions" `Quick test_conversions;
         Alcotest.test_case "addition" `Quick test_addition;
         Alcotest.test_case "subtraction" `Quick test_subtraction;
         Alcotest.test_case "multiplication" `Quick test_multiplication;
         Alcotest.test_case "division" `Quick test_division;
         Alcotest.test_case "pow and shift" `Quick test_pow_and_shift;
         Alcotest.test_case "modular arithmetic" `Quick test_mod_arith;
         Alcotest.test_case "gcd and inverse" `Quick test_gcd_inverse;
         Alcotest.test_case "byte conversions" `Quick test_bytes;
         Alcotest.test_case "primality" `Quick test_primality;
         Alcotest.test_case "prime generation" `Slow test_generate_prime;
         Alcotest.test_case "montgomery" `Quick test_montgomery;
         Alcotest.test_case "montgomery window" `Quick test_mont_window;
         Alcotest.test_case "random below" `Quick test_random_below ]);
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest t) properties) ]

module N = Bignum.Bignat

(* every Paillier-level modular exponentiation (the dominant cost of the
   HOM class) passes through [pow]/[crt_pow]; keygen's primality-test
   modexps live inside Bignum and are not counted here *)
let m_modexp = Obs.Registry.counter "kitdpe.crypto.paillier.modexp"
let m_encrypts = Obs.Registry.counter "kitdpe.crypto.paillier.encrypts"

(* encryption latency sketch: the p50/p99 split is
   the interesting part (pooled-noise hits vs full r^n exponentiations
   land orders of magnitude apart) *)
let m_encrypt = Obs.Registry.sketch "kitdpe.crypto.paillier.encrypt"

(* noise-pool telemetry: request-path cache behaviour of precomputed r^n
   factors.  [depth] tracks the current number of pooled entries. *)
let m_pool_hits = Obs.Registry.counter "kitdpe.crypto.paillier.noise_pool.hits"
let m_pool_misses = Obs.Registry.counter "kitdpe.crypto.paillier.noise_pool.misses"
let m_pool_fills = Obs.Registry.counter "kitdpe.crypto.paillier.noise_pool.fills"
let m_pool_depth = Obs.Registry.gauge "kitdpe.crypto.paillier.noise_pool.depth"

type public = { n : N.t; n2 : N.t; mont : N.mont }
(* n2 = n^2 is odd (n is a product of odd primes), so the Montgomery
   context always exists and makes every exponentiation ~3x faster *)

(* CRT decryption state: with p and q retained from keygen, [c^(p-1) mod
   p²] and [c^(q-1) mod q²] under per-prime Montgomery contexts cost
   about an eighth of one full-width exponentiation each (half the
   exponent bits over half the limbs, quadratic kernels), so the pair is
   ~4x cheaper than the lambda path at any modulus size. *)
type crt = {
  p : N.t;
  q : N.t;
  p2 : N.t;
  q2 : N.t;
  mont_p2 : N.mont;
  mont_q2 : N.mont;
  pm1 : N.t;  (* p - 1 *)
  qm1 : N.t;  (* q - 1 *)
  hp : N.t;   (* (L_p(g^(p-1) mod p²))^(-1) mod p *)
  hq : N.t;   (* (L_q(g^(q-1) mod q²))^(-1) mod q *)
  p_inv_q : N.t;  (* p^(-1) mod q, for Garner recombination *)
}

type secret = { pub : public; lambda : N.t; mu : N.t; crt : crt }

let modulus pub = pub.n
let public_of_secret sk = sk.pub

let pow pub b e =
  Obs.Metric.incr m_modexp;
  N.mont_pow pub.mont b e

let crt_pow mont b e =
  Obs.Metric.incr m_modexp;
  N.mont_pow mont b e

let mismatch op reason =
  raise (Fault.Error.E (Fault.Error.Paillier_mismatch { op; reason }))

let keygen ?(bits = 512) rng =
  if bits < 32 then invalid_arg "Paillier.keygen: modulus too small";
  let rng_fn = Drbg.bytes_fn rng in
  let half = bits / 2 in
  let rec pick_q p =
    let q = N.generate_prime rng_fn half in
    if N.equal p q then pick_q p else q
  in
  let p = N.generate_prime rng_fn half in
  let q = pick_q p in
  let n = N.mul p q in
  let n2 = N.mul n n in
  let mont =
    match N.mont_create n2 with
    | Some m -> m
    | None -> assert false (* n2 is odd and > 3 *)
  in
  let lambda = N.lcm (N.sub p N.one) (N.sub q N.one) in
  (* with g = n+1:  L(g^lambda mod n^2) = lambda mod n, so mu = lambda^-1 *)
  let mu =
    match N.mod_inv lambda n with
    | Some mu -> mu
    | None -> invalid_arg "Paillier.keygen: lambda not invertible (retry seed)"
  in
  let pub = { n; n2; mont } in
  let crt =
    let mk_mont m2 =
      match N.mont_create m2 with
      | Some m -> m
      | None -> assert false (* squares of odd primes are odd and > 3 *)
    in
    let p2 = N.mul p p and q2 = N.mul q q in
    let mont_p2 = mk_mont p2 and mont_q2 = mk_mont q2 in
    let pm1 = N.sub p N.one and qm1 = N.sub q N.one in
    (* h_prime = (L_prime(g^(prime-1) mod prime²))^(-1) mod prime,
       computed exactly the way decryption will, with g = n + 1 *)
    let h prime prime2 mont pm1 =
      let gp = N.rem (N.add n N.one) prime2 in
      let u = crt_pow mont gp pm1 in
      let l = N.div (N.sub u N.one) prime in
      match N.mod_inv l prime with
      | Some h -> h
      | None -> invalid_arg "Paillier.keygen: CRT precompute not invertible"
    in
    let p_inv_q =
      match N.mod_inv p q with
      | Some i -> i
      | None -> assert false (* distinct primes *)
    in
    { p;
      q;
      p2;
      q2;
      mont_p2;
      mont_q2;
      pm1;
      qm1;
      hp = h p p2 mont_p2 pm1;
      hq = h q q2 mont_q2 qm1;
      p_inv_q }
  in
  (pub, { pub; lambda; mu; crt })

let random_unit pub rng =
  let rng_fn = Drbg.bytes_fn rng in
  let rec go () =
    let r = N.random_below rng_fn pub.n in
    if N.is_zero r || not (N.is_one (N.gcd r pub.n)) then go () else r
  in
  go ()

(* the expensive half of encryption: r^n mod n² for a fresh unit r *)
let noise pub rng = pow pub (random_unit pub rng) pub.n

(* combine a plaintext with a precomputed noise factor:
   (1 + m·n) · rn mod n², using g^m = 1 + m·n for g = n + 1 *)
let assemble pub m rn =
  let gm = N.rem (N.add N.one (N.mul m pub.n)) pub.n2 in
  N.mod_mul gm rn pub.n2

let check_plaintext pub m =
  if N.compare m pub.n >= 0 then invalid_arg "Paillier.encrypt: m >= n"

let encode_int pub v =
  if v >= 0 then N.of_int v else N.sub pub.n (N.of_int (-v))

(* ---- precomputed noise pool ----

   A pool maps a caller-chosen derivation label to the r^n factor that
   label's DRBG produces, so the expensive exponentiation can run ahead
   of the request path (idle Parallel.Pool lanes during
   Db_encryptor.prewarm_hom_noise).  Determinism does not depend on the
   pool at all: [noise_fill] and the miss path of [encrypt_pooled]
   derive r from the *same* per-label DRBG, so the ciphertext is
   bit-identical whether the entry was prefilled, evicted, or the pool
   is absent — the pool is a pure cache keyed by the derivation label,
   never a queue consumed in arrival order. *)

type pool = {
  entries : (string, N.t) Hashtbl.t;
  lock : Mutex.t;
  capacity : int;
}

let pool_create ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Paillier.pool_create: capacity < 1";
  { entries = Hashtbl.create 1024; lock = Mutex.create (); capacity }

let pool_depth pool =
  Mutex.lock pool.lock;
  let d = Hashtbl.length pool.entries in
  Mutex.unlock pool.lock;
  d

(* stable per-label key for the fault trigger: same label, same victim,
   for every pool size and fill order *)
let label_key s =
  let h = ref 0 in
  String.iter (fun c -> h := (((!h * 131) + Char.code c) land 0x3FFFFFFF)) s;
  !h

let pool_set pool key rn =
  Mutex.lock pool.lock;
  if (not (Hashtbl.mem pool.entries key))
     && Hashtbl.length pool.entries < pool.capacity
  then begin
    Hashtbl.replace pool.entries key rn;
    Obs.Metric.incr m_pool_fills;
    Obs.Metric.set_gauge m_pool_depth (Hashtbl.length pool.entries)
  end;
  Mutex.unlock pool.lock

let pool_take pool key =
  Mutex.lock pool.lock;
  let v = Hashtbl.find_opt pool.entries key in
  (match v with
  | Some _ ->
    Hashtbl.remove pool.entries key;
    Obs.Metric.incr m_pool_hits;
    Obs.Metric.set_gauge m_pool_depth (Hashtbl.length pool.entries)
  | None -> Obs.Metric.incr m_pool_misses);
  Mutex.unlock pool.lock;
  v

let noise_fill pool pub ~key rng =
  if Fault.enabled () then
    Fault.point ~key:(label_key key) "crypto.paillier.noise_pool";
  let wanted =
    Mutex.lock pool.lock;
    let w =
      (not (Hashtbl.mem pool.entries key))
      && Hashtbl.length pool.entries < pool.capacity
    in
    Mutex.unlock pool.lock;
    w
  in
  if wanted then pool_set pool key (noise pub rng)

let encrypt_pooled ?pool pub ~key rng m =
  check_plaintext pub m;
  if Fault.enabled () then
    Fault.point
      ~key:(match N.to_int_opt m with Some v -> v | None -> 0)
      "crypto.paillier.encrypt";
  Obs.Metric.incr m_encrypts;
  let t0 = Obs.time_start () in
  let rn =
    match pool with
    | None -> noise pub rng
    | Some p -> (
      match pool_take p key with
      | Some rn -> rn
      | None -> noise pub rng)
  in
  let c = assemble pub m rn in
  if t0 > 0 then Obs.observe_latency m_encrypt (Obs.now_ns () - t0);
  c

let encrypt_int_pooled ?pool pub ~key rng v =
  encrypt_pooled ?pool pub ~key rng (encode_int pub v)

(* without a pool the label is never read *)
let encrypt pub rng m = encrypt_pooled pub ~key:"" rng m
let encrypt_int pub rng v = encrypt pub rng (encode_int pub v)

(* ---- pool persistence ----

   A saved pool is a line-oriented text image: a header binding the
   snapshot to its public key, then one "<hex label> <hex r^n>" line
   per entry in sorted label order (so the image of a given pool state
   is deterministic).  Because the pool is a pure cache keyed by
   derivation label, reloading any subset — including a snapshot taken
   by an earlier process — is always sound: ciphertexts come out
   bit-identical whether an entry was reloaded, refilled, or recomputed
   on miss.  The fingerprint exists because the one unsound case is
   crossing snapshots between keys (an r^n under the wrong modulus
   would corrupt ciphertexts silently), so a mismatch is a typed error
   and the caller starts cold. *)

let pool_fingerprint pub = String.sub (Sha256.hex (N.to_bytes_be pub.n)) 0 16

let pool_header = "kitdpe-noise-pool v1"

let pool_save pool pub =
  Mutex.lock pool.lock;
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) pool.entries [] in
  Mutex.unlock pool.lock;
  let entries = List.sort (fun (a, _) (b, _) -> String.compare a b) entries in
  let buf = Buffer.create (64 + (List.length entries * 200)) in
  Buffer.add_string buf pool_header;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (pool_fingerprint pub);
  Buffer.add_char buf '\n';
  List.iter
    (fun (label, rn) ->
      Buffer.add_string buf (Hex.encode label);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Hex.encode (N.to_bytes_be rn));
      Buffer.add_char buf '\n')
    entries;
  Buffer.contents buf

let pool_load pool pub data =
  let corrupt reason =
    Error (Fault.Error.Crypto_failure { op = "Paillier.pool_load"; reason })
  in
  let lines = String.split_on_char '\n' data in
  match lines with
  | [] -> corrupt "empty image"
  | header :: rest -> (
    match String.split_on_char ' ' header with
    | [ magic; version; fp ]
      when Ct.equal (magic ^ " " ^ version) pool_header ->
      if not (Ct.equal fp (pool_fingerprint pub)) then
        corrupt "key fingerprint mismatch (pool saved under another key)"
      else begin
        let loaded = ref 0 in
        let err = ref None in
        List.iteri
          (fun i line ->
            if Option.is_none !err && String.length line > 0 then
              match String.split_on_char ' ' line with
              | [ hlabel; hrn ] -> (
                match (Hex.decode hlabel, Hex.decode hrn) with
                | Some label, Some rn_bytes ->
                  let rn = N.of_bytes_be rn_bytes in
                  if N.compare rn pub.n2 >= 0 then
                    err :=
                      Some
                        (Printf.sprintf "entry %d: noise factor >= n^2" (i + 1))
                  else begin
                    pool_set pool label rn;
                    incr loaded
                  end
                | _ ->
                  err := Some (Printf.sprintf "entry %d: bad hex" (i + 1)))
              | _ ->
                err := Some (Printf.sprintf "entry %d: malformed line" (i + 1)))
          rest;
        match !err with Some reason -> corrupt reason | None -> Ok !loaded
      end
    | _ -> corrupt "bad header (not a kitdpe noise-pool image)")

(* ---- decryption ---- *)

let l_function pub u = N.div (N.sub u N.one) pub.n

let check_ciphertext op pub c =
  if N.compare c pub.n2 >= 0 then
    mismatch op "ciphertext >= n^2 (wrong key or corrupt)"

(* Lambda/mu reference path: m = L(c^lambda mod n²) · mu mod n.  Kept
   as the implementation the CRT fast path is property-tested against
   (they agree on every unit ciphertext). *)
let decrypt_lambda sk c =
  let pub = sk.pub in
  check_ciphertext "Paillier.decrypt" pub c;
  let u = pow pub c sk.lambda in
  if N.is_zero u then
    mismatch "Paillier.decrypt" "ciphertext shares a factor with the modulus";
  N.mod_mul (l_function pub u) sk.mu pub.n

(* CRT fast path: one half-width exponentiation per prime, then Garner
   recombination.  [u = c^(prime-1) mod prime²] is zero exactly when the
   prime divides c — such a c was never produced under this key, so it
   surfaces as the typed mismatch (the lambda path reports the same
   condition only when both primes divide c). *)
let decrypt_crt sk c =
  let pub = sk.pub in
  check_ciphertext "Paillier.decrypt" pub c;
  let t = sk.crt in
  let part mont prime2 prime em1 h =
    let u = crt_pow mont (N.rem c prime2) em1 in
    if N.is_zero u then
      mismatch "Paillier.decrypt" "ciphertext shares a factor with the modulus";
    N.mod_mul (N.div (N.sub u N.one) prime) h prime
  in
  let mp = part t.mont_p2 t.p2 t.p t.pm1 t.hp in
  let mq = part t.mont_q2 t.q2 t.q t.qm1 t.hq in
  (* Garner: m = mp + p · ((mq - mp) · p^(-1) mod q)  <  p·q = n *)
  let h = N.mod_mul (N.mod_sub mq mp t.q) t.p_inv_q t.q in
  N.add mp (N.mul t.p h)

let decrypt = decrypt_crt

let decrypt_int sk c =
  let pub = sk.pub in
  let m = decrypt sk c in
  let half = N.shift_right pub.n 1 in
  (* a plaintext outside the native-int range was never produced by
     [encrypt_int]: the secret key does not match the ciphertext.  An
     overflow here must surface as the typed error, not as garbage or a
     bare [Failure]. *)
  let to_int_checked v =
    match N.to_int_opt v with
    | Some i -> i
    | None ->
      mismatch "Paillier.decrypt_int"
        "plaintext exceeds the native int range (wrong key or corrupt)"
  in
  if N.compare m half <= 0 then to_int_checked m
  else - (to_int_checked (N.sub pub.n m))

let add pub c1 c2 = N.mod_mul c1 c2 pub.n2

let scalar_mul pub c k =
  if k < 0 then invalid_arg "Paillier.scalar_mul: negative scalar";
  pow pub c (N.of_int k)

let serialize = N.to_bytes_be
let deserialize = N.of_bytes_be

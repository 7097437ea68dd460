type params = { plain_bits : int; cipher_bits : int }

(* every key carries a transparent plaintext -> ciphertext memo: OPE is
   deterministic, so caching never changes a ciphertext; it only skips
   the ~plain_bits HMAC tree descents of a repeated plaintext *)
type key = { prf : string; p : params; memo : (int, int) Memo.t }

type cache_stats = Memo.stats = { hits : int; misses : int; evictions : int; size : int }

let m_cache = Memo.counters "kitdpe.crypto.ope"
let m_encrypt = Obs.Registry.sketch "kitdpe.crypto.ope.encrypt"

let default_params = { plain_bits = 32; cipher_bits = 48 }

let create ~master ~purpose p =
  if p.plain_bits <= 0 || p.plain_bits >= p.cipher_bits || p.cipher_bits > 55
  then invalid_arg "Ope.create: invalid params";
  { prf = Hmac.derive ~master ~purpose:("ope/" ^ purpose) 32;
    p;
    memo = Memo.create m_cache }

let params k = (k.p.plain_bits, k.p.cipher_bits)
let max_plain k = (1 lsl k.p.plain_bits) - 1
let cache_clear k = Memo.clear k.memo
let cache_stats k = Memo.stats k.memo

let encode_int v =
  String.init 8 (fun i -> Char.chr ((v lsr (8 * (7 - i))) land 0xff))

(* deterministic uniform draw in [0, n) seeded by the node coordinates.
   Exactly uniform: the 62-bit HMAC prefix is rejected when it falls in
   the final partial multiple of [n] and the hash is re-keyed with an
   incremented counter (n < 2^56, so a single round rejects with
   probability < 2^-6; the expected number of HMACs is < 1.02). *)
let draw key tag a b n =
  (* keyed by the node's low plaintext so a chaos trigger hits the same
     tree nodes on every run *)
  Fault.point ~key:a "crypto.ope.draw";
  let limit = max_int - (max_int mod n) in
  let rec go ctr =
    let h =
      Hmac.hmac_sha256 ~key (tag ^ encode_int ctr ^ encode_int a ^ encode_int b)
    in
    let v = ref 0 in
    for i = 0 to 7 do v := ((!v lsl 8) lor Char.code h.[i]) land max_int done;
    if !v < limit then !v mod n else go (ctr + 1)
  in
  go 0

(* Split point for the node covering plaintexts [plo..phi] and ciphertexts
   [clo..chi]: cs is the highest ciphertext allocated to the left half.
   Left half holds plaintexts [plo..pm] and needs pm-plo+1 values; right
   half holds [pm+1..phi] and needs phi-pm values. *)
let node_split k plo phi clo chi =
  let pm = plo + (phi - plo) / 2 in
  let lo = clo + (pm - plo) in
  let hi = chi - (phi - pm) in
  (* the node is identified by (plo, phi): the ciphertext range is a
     function of the path from the root, so it need not enter the seed *)
  let cs = lo + draw k.prf "node" plo phi (hi - lo + 1) in
  (pm, cs)

let leaf_value k m clo chi =
  clo + draw k.prf "leaf" m m (chi - clo + 1)

let encrypt_uncached k m =
  (* before any cache write, so an injected failure never poisons the
     memo: a later disarmed call recomputes and caches the real value *)
  Fault.point ~key:m "crypto.ope.encrypt";
  let rec go plo phi clo chi =
    if plo = phi then leaf_value k plo clo chi
    else begin
      let pm, cs = node_split k plo phi clo chi in
      if m <= pm then go plo pm clo cs else go (pm + 1) phi (cs + 1) chi
    end
  in
  go 0 (max_plain k) 0 ((1 lsl k.p.cipher_bits) - 1)

let encrypt k m =
  if m < 0 || m > max_plain k then invalid_arg "Ope.encrypt: out of domain";
  Memo.find_or_add k.memo m (fun m ->
      let t0 = Obs.time_start () in
      let c = encrypt_uncached k m in
      if t0 > 0 then Obs.observe_latency m_encrypt (Obs.now_ns () - t0);
      c)

let decrypt k c =
  if c < 0 || c >= 1 lsl k.p.cipher_bits then None
  else begin
    let rec go plo phi clo chi =
      if plo = phi then
        if leaf_value k plo clo chi = c then Some plo else None
      else begin
        let pm, cs = node_split k plo phi clo chi in
        if c <= cs then go plo pm clo cs else go (pm + 1) phi (cs + 1) chi
      end
    in
    go 0 (max_plain k) 0 ((1 lsl k.p.cipher_bits) - 1)
  end

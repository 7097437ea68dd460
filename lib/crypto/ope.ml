type params = { plain_bits : int; cipher_bits : int }

(* Transparent plaintext -> ciphertext memo.  OPE is deterministic, so
   caching never changes a ciphertext; it only skips the ~plain_bits HMAC
   tree descents of a repeated plaintext.  Bulk encryption shares keys
   across domains, hence the mutex. *)
type cache = {
  tbl : (int, int) Hashtbl.t;
  lock : Mutex.t;
  bound : int;
  (* per-key telemetry, maintained under [lock]; mirrored into the
     global Obs registry when observability is enabled *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type cache_stats = { hits : int; misses : int; evictions : int; size : int }

type key = { prf : string; p : params; cache : cache }

let m_hits = Obs.Registry.counter "kitdpe.crypto.ope.cache_hits"
let m_misses = Obs.Registry.counter "kitdpe.crypto.ope.cache_misses"
let m_evictions = Obs.Registry.counter "kitdpe.crypto.ope.cache_evictions"
let m_encrypt = Obs.Registry.sketch "kitdpe.crypto.ope.encrypt"

let default_params = { plain_bits = 32; cipher_bits = 48 }

let default_cache_bound = 1 lsl 16

let create ~master ~purpose p =
  if p.plain_bits <= 0 || p.plain_bits >= p.cipher_bits || p.cipher_bits > 55
  then invalid_arg "Ope.create: invalid params";
  { prf = Hmac.derive ~master ~purpose:("ope/" ^ purpose) 32;
    p;
    cache =
      { tbl = Hashtbl.create 256;
        lock = Mutex.create ();
        bound = default_cache_bound;
        hits = 0;
        misses = 0;
        evictions = 0 } }

let params k = (k.p.plain_bits, k.p.cipher_bits)
let max_plain k = (1 lsl k.p.plain_bits) - 1

let cache_size k =
  Mutex.lock k.cache.lock;
  let n = Hashtbl.length k.cache.tbl in
  Mutex.unlock k.cache.lock;
  n

let cache_clear k =
  Mutex.lock k.cache.lock;
  Hashtbl.reset k.cache.tbl;
  Mutex.unlock k.cache.lock

let cache_stats k =
  Mutex.lock k.cache.lock;
  let s =
    { hits = k.cache.hits;
      misses = k.cache.misses;
      evictions = k.cache.evictions;
      size = Hashtbl.length k.cache.tbl }
  in
  Mutex.unlock k.cache.lock;
  s

let cache_find k m =
  Mutex.lock k.cache.lock;
  let r = Hashtbl.find_opt k.cache.tbl m in
  (match r with
   | Some _ -> k.cache.hits <- k.cache.hits + 1
   | None -> k.cache.misses <- k.cache.misses + 1);
  Mutex.unlock k.cache.lock;
  (match r with
   | Some _ -> Obs.Metric.incr m_hits
   | None -> Obs.Metric.incr m_misses);
  r

let cache_add k m c =
  Mutex.lock k.cache.lock;
  let evicted =
    if Hashtbl.length k.cache.tbl >= k.cache.bound then begin
      let n = Hashtbl.length k.cache.tbl in
      Hashtbl.reset k.cache.tbl;
      k.cache.evictions <- k.cache.evictions + n;
      n
    end
    else 0
  in
  Hashtbl.replace k.cache.tbl m c;
  Mutex.unlock k.cache.lock;
  if evicted > 0 then Obs.Metric.add m_evictions evicted

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
  match cache_find k m with
  | Some c -> c
  | None ->
    let t0 = Obs.time_start () in
    let c = encrypt_uncached k m in
    if t0 > 0 then Obs.observe_latency m_encrypt (Obs.now_ns () - t0);
    cache_add k m c;
    c

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

type key = { siv : string; enc : Aes128.key }

let m_encrypt = Obs.Registry.sketch "kitdpe.crypto.det.encrypt"
let m_hits = Obs.Registry.counter "kitdpe.crypto.det.cache_hits"
let m_misses = Obs.Registry.counter "kitdpe.crypto.det.cache_misses"
let m_evictions = Obs.Registry.counter "kitdpe.crypto.det.cache_evictions"

let key_of_master ~master ~purpose =
  let raw = Hmac.derive ~master ~purpose:("det/" ^ purpose) 48 in
  { siv = String.sub raw 0 32; enc = Aes128.expand (String.sub raw 32 16) }

let siv_of k msg = String.sub (Hmac.hmac_sha256 ~key:k.siv msg) 0 16

let encrypt k msg =
  if Fault.enabled () then
    Fault.point ~key:(Hashtbl.hash msg) "crypto.det.encrypt";
  let t0 = Obs.time_start () in
  let iv = siv_of k msg in
  let ct = iv ^ Block_modes.ctr_transform k.enc ~iv msg in
  if t0 > 0 then Obs.observe_latency m_encrypt (Obs.now_ns () - t0);
  ct

let decrypt k ct =
  let n = String.length ct in
  if n < 16 then None
  else begin
    let iv = String.sub ct 0 16 in
    let msg = Block_modes.ctr_transform k.enc ~iv (String.sub ct 16 (n - 16)) in
    if Ct.equal (siv_of k msg) iv then Some msg else None
  end

let token = siv_of

(* optional plaintext -> ciphertext memo for bulk encryption: DET is
   deterministic, so a hit returns exactly what [encrypt] would, and the
   mutex makes one cache shareable by all domains of a pool *)
type cache = {
  tbl : (string, string) Hashtbl.t;
  lock : Mutex.t;
  bound : int;
  (* per-cache telemetry, maintained under [lock]; mirrored into the
     global Obs registry when observability is enabled *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type cache_stats = { hits : int; misses : int; evictions : int; size : int }

let make_cache ?(bound = 1 lsl 16) () =
  { tbl = Hashtbl.create 256;
    lock = Mutex.create ();
    bound = max 1 bound;
    hits = 0;
    misses = 0;
    evictions = 0 }

let cache_stats cache =
  Mutex.lock cache.lock;
  let s =
    { hits = cache.hits;
      misses = cache.misses;
      evictions = cache.evictions;
      size = Hashtbl.length cache.tbl }
  in
  Mutex.unlock cache.lock;
  s

let encrypt_cached cache k msg =
  Mutex.lock cache.lock;
  let hit = Hashtbl.find_opt cache.tbl msg in
  (match hit with
   | Some _ -> cache.hits <- cache.hits + 1
   | None -> cache.misses <- cache.misses + 1);
  Mutex.unlock cache.lock;
  match hit with
  | Some ct ->
    Obs.Metric.incr m_hits;
    ct
  | None ->
    Obs.Metric.incr m_misses;
    let ct = encrypt k msg in
    Mutex.lock cache.lock;
    let evicted =
      if Hashtbl.length cache.tbl >= cache.bound then begin
        let n = Hashtbl.length cache.tbl in
        Hashtbl.reset cache.tbl;
        cache.evictions <- cache.evictions + n;
        n
      end
      else 0
    in
    Hashtbl.replace cache.tbl msg ct;
    Mutex.unlock cache.lock;
    if evicted > 0 then Obs.Metric.add m_evictions evicted;
    ct

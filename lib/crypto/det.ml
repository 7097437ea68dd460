type key = { siv : string; enc : Aes128.key }

let m_encrypt = Obs.Registry.sketch "kitdpe.crypto.det.encrypt"
let m_calls = Obs.Registry.counter "kitdpe.crypto.det.calls"
let m_cache = Memo.counters "kitdpe.crypto.det"

let key_of_master ~master ~purpose =
  let raw = Hmac.derive ~master ~purpose:("det/" ^ purpose) 48 in
  { siv = String.sub raw 0 32; enc = Aes128.expand (String.sub raw 32 16) }

let siv_of k msg = String.sub (Hmac.hmac_sha256 ~key:k.siv msg) 0 16

let encrypt_uncounted k msg =
  if Fault.enabled () then
    Fault.point ~key:(Fault.key_of_string msg) "crypto.det.encrypt";
  let t0 = Obs.time_start () in
  let iv = siv_of k msg in
  let ct = iv ^ Block_modes.ctr_transform k.enc ~iv msg in
  if t0 > 0 then Obs.observe_latency m_encrypt (Obs.now_ns () - t0);
  ct

let encrypt k msg =
  Obs.Metric.incr m_calls;
  encrypt_uncounted k msg

let decrypt k ct =
  let n = String.length ct in
  if n < 16 then None
  else begin
    let iv = String.sub ct 0 16 in
    let msg = Block_modes.ctr_transform k.enc ~iv (String.sub ct 16 (n - 16)) in
    if Ct.equal (siv_of k msg) iv then Some msg else None
  end

let token = siv_of

(* the bulk encryptor's per-column memo: DET is deterministic, so a hit
   returns exactly what [encrypt] would *)
type cache = (string, string) Memo.t

let make_cache ?bound () = Memo.create ?bound m_cache
let encrypt_cached cache k msg =
  Obs.Metric.incr m_calls;
  Memo.find_or_add cache msg (encrypt_uncounted k)

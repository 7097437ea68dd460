type key = { enc : Aes128.key; mac : string }

let key_of_master ~master ~purpose =
  let raw = Hmac.derive ~master ~purpose:("prob/" ^ purpose) 48 in
  { enc = Aes128.expand (String.sub raw 0 16); mac = String.sub raw 16 32 }

let tag_len = 16

let encrypt k rng msg =
  if Fault.enabled () then
    Fault.point ~key:(Fault.key_of_string msg) "crypto.prob.encrypt";
  let iv = Drbg.generate rng 16 in
  let ct = Block_modes.ctr_transform k.enc ~iv msg in
  let tag = String.sub (Hmac.hmac_sha256 ~key:k.mac (iv ^ ct)) 0 tag_len in
  iv ^ ct ^ tag

let min_ciphertext_length = 16 + tag_len

let decrypt k ct =
  let n = String.length ct in
  if n < min_ciphertext_length then None
  else begin
    let iv = String.sub ct 0 16 in
    let body = String.sub ct 16 (n - 16 - tag_len) in
    let tag = String.sub ct (n - tag_len) tag_len in
    let expect = String.sub (Hmac.hmac_sha256 ~key:k.mac (iv ^ body)) 0 tag_len in
    if Ct.equal tag expect then
      Some (Block_modes.ctr_transform k.enc ~iv body)
    else None
  end

type t = { master : string }

let create ~master = { master }

let of_passphrase pass =
  let h = ref (Sha256.digest ("kitdpe/v1/" ^ pass)) in
  for _ = 1 to 10_000 do h := Sha256.digest (!h ^ pass) done;
  { master = !h }

let master t = t.master
let det t purpose = Det.key_of_master ~master:t.master ~purpose
let prob t purpose = Prob.key_of_master ~master:t.master ~purpose

let ope t purpose = Ope.create ~master:t.master ~purpose Ope.default_params

let join_det t group = Join_enc.det_key ~master:t.master group

let join_ope t group = Join_enc.ope_key ~master:t.master group Ope.default_params

let derive t ns =
  { master = Hmac.derive ~master:t.master ~purpose:("kitdpe/tenant/" ^ ns) 32 }

let drbg t purpose =
  Drbg.create ~seed:(Hmac.derive ~master:t.master ~purpose:("drbg/" ^ purpose) 32)

let block_size = 64

let hmac_sha256 ~key msg =
  let key =
    if String.length key > block_size then Sha256.digest key else key
  in
  let key = key ^ String.make (block_size - String.length key) '\000' in
  let xor_pad byte = String.map (fun c -> Char.chr (Char.code c lxor byte)) key in
  let ipad = xor_pad 0x36 and opad = xor_pad 0x5c in
  Sha256.digest (opad ^ Sha256.digest (ipad ^ msg))

(* HKDF-Extract with the RFC 5869 default salt (empty) *)
let hkdf_extract ikm = hmac_sha256 ~key:"" ikm

let hkdf_expand ~prk ~info len =
  if len > 255 * 32 then invalid_arg "Hmac.hkdf_expand: too long";
  let buf = Buffer.create len in
  let t = ref "" in
  let i = ref 1 in
  while Buffer.length buf < len do
    t := hmac_sha256 ~key:prk (!t ^ info ^ String.make 1 (Char.chr !i));
    Buffer.add_string buf !t;
    incr i
  done;
  String.sub (Buffer.contents buf) 0 len

let derive ~master ~purpose len =
  hkdf_expand ~prk:(hkdf_extract master) ~info:purpose len

type params = { plain_bits : int; cipher_bits : int }

type key = { prf : string; p : params }

let create ~master ~purpose p =
  if p.plain_bits <= 0 || p.plain_bits > 20
     || p.cipher_bits <= p.plain_bits || p.cipher_bits > 50
  then invalid_arg "Ope_hgd.create: invalid params";
  { prf = Crypto.Hmac.derive ~master ~purpose:("ope-hgd/" ^ purpose) 32; p }

let params k = (k.p.plain_bits, k.p.cipher_bits)
let max_plain k = (1 lsl k.p.plain_bits) - 1

(* ---- Lanczos log-gamma ---- *)

let lanczos_g = 7.0

let lanczos_coefficients =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

let rec lgamma x =
  if x < 0.5 then
    (* reflection: Γ(x)Γ(1-x) = π / sin(πx) *)
    log (Float.pi /. Float.abs (sin (Float.pi *. x))) -. lgamma (1.0 -. x)
  else begin
    let x = x -. 1.0 in
    let acc = ref lanczos_coefficients.(0) in
    for i = 1 to 8 do
      acc := !acc +. (lanczos_coefficients.(i) /. (x +. float_of_int i))
    done;
    let t = x +. lanczos_g +. 0.5 in
    (0.5 *. log (2.0 *. Float.pi))
    +. ((x +. 0.5) *. log t)
    -. t
    +. log !acc
  end

(* log C(n, k) *)
let log_choose n k =
  if k < 0 || k > n then neg_infinity
  else
    lgamma (float_of_int n +. 1.0)
    -. lgamma (float_of_int k +. 1.0)
    -. lgamma (float_of_int (n - k) +. 1.0)

(* log P[X = k] for X ~ HGD(draws, whites, total) *)
let log_pmf ~draws ~whites ~total k =
  log_choose whites k
  +. log_choose (total - whites) (draws - k)
  -. log_choose total draws

(* deterministic uniform in [0,1) seeded by the node coordinates *)
let uniform key tag a b =
  let encode v =
    String.init 8 (fun i -> Char.chr ((v lsr (8 * (7 - i))) land 0xff))
  in
  let h = Crypto.Hmac.hmac_sha256 ~key (tag ^ encode a ^ encode b) in
  let v = ref 0 in
  for i = 0 to 6 do v := (!v lsl 8) lor Char.code h.[i] done;
  float_of_int !v /. float_of_int (1 lsl 56)

(* inverse-CDF sampling of HGD(draws, whites, total), walking outward from
   the mode so the expected number of pmf evaluations is O(std dev) *)
let hgd_sample ~draws ~whites ~total u =
  let lo = max 0 (draws - (total - whites)) in
  let hi = min draws whites in
  if lo = hi then lo
  else begin
    let mode =
      let m =
        int_of_float
          (float_of_int ((draws + 1) * (whites + 1)) /. float_of_int (total + 2))
      in
      max lo (min hi m)
    in
    let pmf k = exp (log_pmf ~draws ~whites ~total k) in
    (* accumulate probability mass outward from the mode until we can place
       the quantile u; track the partial CDF of visited ks in order *)
    let visited = ref [ (mode, pmf mode) ] in
    let left = ref (mode - 1) and right = ref (mode + 1) in
    let mass = ref (pmf mode) in
    while !mass < u && (!left >= lo || !right <= hi) do
      let pl = if !left >= lo then pmf !left else neg_infinity in
      let pr = if !right <= hi then pmf !right else neg_infinity in
      if pl >= pr && !left >= lo then begin
        visited := (!left, pl) :: !visited;
        mass := !mass +. pl;
        decr left
      end
      else if !right <= hi then begin
        visited := (!right, pr) :: !visited;
        mass := !mass +. pr;
        incr right
      end
      else if !left >= lo then begin
        visited := (!left, pl) :: !visited;
        mass := !mass +. pl;
        decr left
      end
    done;
    (* order visited by k and walk the CDF *)
    let ordered = List.sort (fun (ka, _) (kb, _) -> Int.compare ka kb) !visited in
    let rec walk acc = function
      | [] -> hi
      | (k, p) :: rest ->
        let acc = acc +. p in
        if acc >= u then k else walk acc rest
    in
    walk 0.0 ordered
  end

(* Boldyreva-style lazy sampling: split the CIPHERTEXT range at its
   midpoint y and sample how many plaintexts land at or below y *)
let rec search k m ~plo ~phi ~clo ~chi ~decrypting ~target =
  let dsize = phi - plo + 1 and rsize = chi - clo + 1 in
  assert (dsize >= 1 && rsize >= dsize);
  if dsize = 1 then begin
    (* one plaintext left: its ciphertext is uniform in the range *)
    let u = uniform k.prf "leaf" plo plo in
    let c = clo + int_of_float (u *. float_of_int rsize) in
    let c = min c chi in
    if decrypting then if c = target then Some plo else None
    else Some c
  end
  else begin
    let y = clo + ((rsize - 1) / 2) in
    let draws = y - clo + 1 in
    let u = uniform k.prf "node" plo phi in
    let x = hgd_sample ~draws ~whites:dsize ~total:rsize u in
    (* x plaintexts fall in [clo..y]; keep the split sane for recursion *)
    let x = max 0 (min x (min dsize draws)) in
    let x = max x (dsize - (chi - y)) (* right side must fit *) in
    let split = plo + x - 1 in
    let go_left =
      if decrypting then target <= y else m <= split
    in
    if go_left then
      if x = 0 then
        (if decrypting then None
         else search k m ~plo ~phi ~clo:(y + 1) ~chi ~decrypting ~target)
      else search k m ~plo ~phi:split ~clo ~chi:y ~decrypting ~target
    else if x = dsize then
      if decrypting then None
      else search k m ~plo ~phi ~clo ~chi:y ~decrypting ~target
    else search k m ~plo:(split + 1) ~phi ~clo:(y + 1) ~chi ~decrypting ~target
  end

let encrypt k m =
  if m < 0 || m > max_plain k then invalid_arg "Ope_hgd.encrypt: out of domain";
  match
    search k m ~plo:0 ~phi:(max_plain k) ~clo:0
      ~chi:((1 lsl k.p.cipher_bits) - 1) ~decrypting:false ~target:0
  with
  | Some c -> c
  | None -> assert false

let decrypt k c =
  if c < 0 || c >= 1 lsl k.p.cipher_bits then None
  else
    search k 0 ~plo:0 ~phi:(max_plain k) ~clo:0
      ~chi:((1 lsl k.p.cipher_bits) - 1) ~decrypting:true ~target:c

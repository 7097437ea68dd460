(* AES-128.  GF(2^8) arithmetic modulo x^8 + x^4 + x^3 + x + 1 (0x11b). *)

let xtime b =
  let b = b lsl 1 in
  if b land 0x100 <> 0 then (b lxor 0x11b) land 0xff else b

let gmul a b =
  let acc = ref 0 and a = ref a and b = ref b in
  while !b <> 0 do
    if !b land 1 = 1 then acc := !acc lxor !a;
    a := xtime !a;
    b := !b lsr 1
  done;
  !acc

(* multiplicative inverse by exponentiation: a^254 = a^-1 in GF(2^8) *)
let ginv a =
  if a = 0 then 0
  else begin
    let rec go acc b e =
      if e = 0 then acc
      else go (if e land 1 = 1 then gmul acc b else acc) (gmul b b) (e lsr 1)
    in
    go 1 a 254
  end

let sbox =
  Array.init 256 (fun i ->
      let b = ginv i in
      let rot b n = ((b lsl n) lor (b lsr (8 - n))) land 0xff in
      b lxor rot b 1 lxor rot b 2 lxor rot b 3 lxor rot b 4 lxor 0x63)

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

type key = int array array
(* 11 round keys, each 16 bytes *)

let expand k =
  if String.length k <> 16 then invalid_arg "Aes128.expand: need 16-byte key";
  (* words w.(0..43), each 4 bytes *)
  let w = Array.make 44 [| 0; 0; 0; 0 |] in
  for i = 0 to 3 do
    w.(i) <- Array.init 4 (fun j -> Char.code k.[4 * i + j])
  done;
  for i = 4 to 43 do
    let tmp = Array.copy w.(i - 1) in
    let tmp =
      if i mod 4 = 0 then begin
        (* rotword + subword + rcon *)
        let r = [| tmp.(1); tmp.(2); tmp.(3); tmp.(0) |] in
        let r = Array.map (fun b -> sbox.(b)) r in
        r.(0) <- r.(0) lxor rcon.(i / 4 - 1);
        r
      end
      else tmp
    in
    w.(i) <- Array.init 4 (fun j -> w.(i - 4).(j) lxor tmp.(j))
  done;
  Array.init 11 (fun r ->
      Array.init 16 (fun j -> w.(4 * r + j / 4).(j mod 4)))

let add_round_key state rk =
  for i = 0 to 15 do state.(i) <- state.(i) lxor rk.(i) done

(* state layout: column-major as in FIPS 197 — state.(4*c + r) is row r, col c *)
let shift_rows state =
  let tmp = Array.copy state in
  for r = 1 to 3 do
    for c = 0 to 3 do
      state.(4 * c + r) <- tmp.(4 * ((c + r) mod 4) + r)
    done
  done

let mix_columns state =
  for c = 0 to 3 do
    let a0 = state.(4 * c) and a1 = state.(4 * c + 1)
    and a2 = state.(4 * c + 2) and a3 = state.(4 * c + 3) in
    state.(4 * c) <- gmul 2 a0 lxor gmul 3 a1 lxor a2 lxor a3;
    state.(4 * c + 1) <- a0 lxor gmul 2 a1 lxor gmul 3 a2 lxor a3;
    state.(4 * c + 2) <- a0 lxor a1 lxor gmul 2 a2 lxor gmul 3 a3;
    state.(4 * c + 3) <- gmul 3 a0 lxor a1 lxor a2 lxor gmul 2 a3
  done

let sub_bytes state = Array.iteri (fun i b -> state.(i) <- sbox.(b)) state

let encrypt_block rk block =
  if String.length block <> 16 then invalid_arg "Aes128.encrypt_block";
  let state = Array.init 16 (fun i -> Char.code block.[i]) in
  add_round_key state rk.(0);
  for round = 1 to 9 do
    sub_bytes state;
    shift_rows state;
    mix_columns state;
    add_round_key state rk.(round)
  done;
  sub_bytes state;
  shift_rows state;
  add_round_key state rk.(10);
  String.init 16 (fun i -> Char.chr state.(i))

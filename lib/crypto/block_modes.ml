let incr_counter block =
  let b = Bytes.of_string block in
  let rec bump i =
    if i >= 8 then begin
      let v = (Char.code (Bytes.get b i) + 1) land 0xff in
      Bytes.set b i (Char.chr v);
      if v = 0 then bump (i - 1)
    end
  in
  bump 15;
  Bytes.to_string b

let ctr_transform key ~iv data =
  if String.length iv <> 16 then invalid_arg "Block_modes.ctr_transform: iv";
  let n = String.length data in
  let out = Bytes.create n in
  let counter = ref iv in
  let i = ref 0 in
  while !i < n do
    let ks = Aes128.encrypt_block key !counter in
    let len = min 16 (n - !i) in
    for j = 0 to len - 1 do
      Bytes.set out (!i + j)
        (Char.chr (Char.code data.[!i + j] lxor Char.code ks.[j]))
    done;
    counter := incr_counter !counter;
    i := !i + 16
  done;
  Bytes.to_string out

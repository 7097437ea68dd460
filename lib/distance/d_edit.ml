let levenshtein (type a) (equal : a -> a -> bool) (a : a array) (b : a array) =
  let n = Array.length a and m = Array.length b in
  if n = 0 then m
  else if m = 0 then n
  else begin
    (* one-row dynamic program *)
    let prev = Array.init (m + 1) Fun.id in
    let cur = Array.make (m + 1) 0 in
    for i = 1 to n do
      cur.(0) <- i;
      for j = 1 to m do
        let cost = if equal a.(i - 1) b.(j - 1) then 0 else 1 in
        cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit cur 0 prev 0 (m + 1)
    done;
    prev.(m)
  end

(* ---- Myers / Hyyrö bit-parallel Levenshtein ----------------------------

   Classic bit-vector algorithm (Myers 1999, blocked form after Hyyrö
   2003): the DP column deltas against the *pattern* are packed into
   machine words (Pv = positive deltas, Mv = negative) and one text
   symbol advances the whole column with O(1) word operations per
   block, i.e. O(nm/w) total.  We use w = 62 payload bits per block
   (OCaml native ints carry 63; keeping one bit of headroom lets the
   carry of the internal addition be masked off explicitly instead of
   wrapping through the sign bit).

   Symbols are small non-negative ints from a per-matrix interning
   (Features); [peq] maps symbol -> bitmask of the pattern positions
   holding that symbol, one word per block, laid out block-major:
   [peq.(blk * alphabet + sym)]. *)

let word_bits = 62
let word_mask = (1 lsl word_bits) - 1

let myers_blocks m = (m + word_bits - 1) / word_bits

(* pattern bitvectors for [myers_with_peq]; symbols outside
   [0, alphabet) are invalid *)
let myers_peq ~alphabet (pat : int array) =
  let m = Array.length pat in
  let nb = max 1 (myers_blocks m) in
  let peq = Array.make (nb * alphabet) 0 in
  Array.iteri
    (fun i sym ->
      let blk = i / word_bits and bit = i mod word_bits in
      let idx = (blk * alphabet) + sym in
      peq.(idx) <- peq.(idx) lor (1 lsl bit))
    pat;
  peq

(* Levenshtein distance of [pat] (represented by [peq]/[m]) against
   [text].  [peq] must come from [myers_peq ~alphabet pat]. *)
let myers_with_peq ~alphabet ~m ~peq (text : int array) =
  let n = Array.length text in
  if m = 0 then n
  else if n = 0 then m
  else begin
    let nb = myers_blocks m in
    (* vertical deltas, all +1 initially (column 0 of the DP table) *)
    let pv = Array.make nb word_mask in
    let mv = Array.make nb 0 in
    let score = ref m in
    (* bit of cell (m-1) inside the last block *)
    let last = nb - 1 in
    let last_bit = 1 lsl ((m - 1) mod word_bits) in
    for j = 0 to n - 1 do
      let sym = Array.unsafe_get text j in
      (* horizontal deltas carried into the current block from below *)
      let ph_in = ref 1 and mh_in = ref 0 in
      for b = 0 to nb - 1 do
        let eq0 = Array.unsafe_get peq ((b * alphabet) + sym) in
        let pvb = Array.unsafe_get pv b and mvb = Array.unsafe_get mv b in
        let xv = eq0 lor mvb in
        (* a negative horizontal delta entering the block acts like a
           match in its lowest cell *)
        let eq = eq0 lor !mh_in in
        let xh =
          ((((eq land pvb) + pvb) land word_mask) lxor pvb) lor eq
        in
        let ph = mvb lor (lnot (xh lor pvb) land word_mask) in
        let mh = pvb land xh in
        (* the DP score lives in the bottom row of the pattern: test the
           cell (m-1) bit of the pre-shift horizontal deltas *)
        if b = last then begin
          if ph land last_bit <> 0 then incr score
          else if mh land last_bit <> 0 then decr score
        end;
        let ph_out = (ph lsr (word_bits - 1)) land 1 in
        let mh_out = (mh lsr (word_bits - 1)) land 1 in
        let ph = ((ph lsl 1) lor !ph_in) land word_mask in
        let mh = ((mh lsl 1) lor !mh_in) land word_mask in
        Array.unsafe_set pv b (mh lor (lnot (xv lor ph) land word_mask));
        Array.unsafe_set mv b (ph land xv);
        ph_in := ph_out;
        mh_in := mh_out
      done
    done;
    !score
  end

(* character-level DP straight off the strings: no boxed [char array]
   per call, [String.unsafe_get] in the inner loop *)
let char_distance a b =
  let n = String.length a and m = String.length b in
  if n = 0 then m
  else if m = 0 then n
  else begin
    let prev = Array.init (m + 1) Fun.id in
    let cur = Array.make (m + 1) 0 in
    for i = 1 to n do
      cur.(0) <- i;
      let ai = String.unsafe_get a (i - 1) in
      for j = 1 to m do
        let cost = if Char.equal ai (String.unsafe_get b (j - 1)) then 0 else 1 in
        let del = Array.unsafe_get prev j + 1 in
        let ins = Array.unsafe_get cur (j - 1) + 1 in
        let sub = Array.unsafe_get prev (j - 1) + cost in
        Array.unsafe_set cur j (min (min ins del) sub)
      done;
      Array.blit cur 0 prev 0 (m + 1)
    done;
    prev.(m)
  end

let token_seq s = Array.of_list (D_token.fuse (Sqlir.Lexer.tokenize s))

let token_distance a b =
  levenshtein String.equal (token_seq a) (token_seq b)

let distance a b =
  let ta = token_seq a and tb = token_seq b in
  let n = max (Array.length ta) (Array.length tb) in
  if n = 0 then 0.0
  else float_of_int (levenshtein String.equal ta tb) /. float_of_int n

let distance_q a b =
  distance (Sqlir.Printer.to_string a) (Sqlir.Printer.to_string b)

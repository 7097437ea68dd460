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

(* One word: a pattern of 1-62 symbols fits one block, so the column
   state lives in three locals, nothing is allocated per text, and the
   carries between blocks vanish (a block's incoming horizontal delta is
   +1 at the top row).  The same steps as [blocked] for [nb = 1]. *)
let one_word ~alphabet (pat : int array) =
  let m = Array.length pat in
  let peq = Array.make alphabet 0 in
  Array.iteri (fun i sym -> peq.(sym) <- peq.(sym) lor (1 lsl i)) pat;
  let last_bit = 1 lsl (m - 1) in
  fun (text : int array) ->
    let pv = ref word_mask and mv = ref 0 and score = ref m in
    for j = 0 to Array.length text - 1 do
      let eq = Array.unsafe_get peq (Array.unsafe_get text j) in
      let pvb = !pv and mvb = !mv in
      let xv = eq lor mvb in
      let xh = ((((eq land pvb) + pvb) land word_mask) lxor pvb) lor eq in
      let ph = mvb lor (lnot (xh lor pvb) land word_mask) in
      let mh = pvb land xh in
      if ph land last_bit <> 0 then incr score
      else if mh land last_bit <> 0 then decr score;
      let ph = ((ph lsl 1) lor 1) land word_mask in
      let mh = (mh lsl 1) land word_mask in
      pv := mh lor (lnot (xv lor ph) land word_mask);
      mv := ph land xv
    done;
    !score

(* the blocked form, for patterns longer than one word *)
let blocked ~alphabet (pat : int array) =
  let m = Array.length pat in
  let nb = (m + word_bits - 1) / word_bits in
  let peq = Array.make (nb * alphabet) 0 in
  Array.iteri
    (fun i sym ->
      let blk = i / word_bits and bit = i mod word_bits in
      let idx = (blk * alphabet) + sym in
      peq.(idx) <- peq.(idx) lor (1 lsl bit))
    pat;
  fun (text : int array) ->
    let n = Array.length text in
    if n = 0 then m
    else begin
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

(* staged: [myers ~alphabet pat] builds [peq] once, and the result is
   the Levenshtein distance of [pat] to a text; symbols outside
   [0, alphabet) are invalid *)
let myers ~alphabet pat =
  let m = Array.length pat in
  if m = 0 then Array.length
  else if m <= word_bits then one_word ~alphabet pat
  else blocked ~alphabet pat

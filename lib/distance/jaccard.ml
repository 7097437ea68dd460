let intersection_and_union_sizes ~compare a b =
  let a = List.sort_uniq compare a and b = List.sort_uniq compare b in
  let rec go inter union a b =
    match a, b with
    | [], rest | rest, [] -> (inter, union + List.length rest)
    | x :: xs, y :: ys ->
      let c = compare x y in
      if c = 0 then go (inter + 1) (union + 1) xs ys
      else if c < 0 then go inter (union + 1) xs b
      else go inter (union + 1) a ys
  in
  go 0 0 a b

let similarity ~compare a b =
  let inter, union = intersection_and_union_sizes ~compare a b in
  if union = 0 then 1.0 else float_of_int inter /. float_of_int union

let distance ~compare a b = 1.0 -. similarity ~compare a b

(* merge-count on pre-sorted, pre-deduplicated int arrays: the
   feature-table fast path.  Intersection and union cardinalities are
   integers, so the resulting float is bit-identical to [distance] on
   the corresponding sets whatever their element type was before
   interning. *)
let sizes_sorted_ints (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let inter = ref 0 and union = ref 0 in
  let i = ref 0 and j = ref 0 in
  while !i < la && !j < lb do
    incr union;
    let x = Array.unsafe_get a !i and y = Array.unsafe_get b !j in
    if x = y then begin incr inter; incr i; incr j end
    else if x < y then incr i
    else incr j
  done;
  union := !union + (la - !i) + (lb - !j);
  (!inter, !union)

let distance_sorted_ints a b =
  let inter, union = sizes_sorted_ints a b in
  if union = 0 then 0.0
  else 1.0 -. (float_of_int inter /. float_of_int union)

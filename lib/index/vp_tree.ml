(* The index entry point: edit to the BK-tree, the Jaccard family to the
   prefix filter.  See vp_tree.mli for why the name stays. *)

type t =
  | Prefix of Prefix.t
  | Bk of Bk_tree.t

let build ?pool ~seed space =
  if Space.is_int_metric space then Bk (Bk_tree.build ?pool ~seed space)
  else Prefix (Prefix.build space)

type stats = Space.stats = { probes : int; prunes : int }

let range_stats t ~eps q =
  match t with
  | Prefix p -> Prefix.range_stats p ~eps q
  | Bk bk -> Bk_tree.range_stats bk ~eps q

let range t ~eps q = fst (range_stats t ~eps q)

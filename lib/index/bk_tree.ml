(* Burkhard–Keller tree over the integer edit metric.

   The BK invariant: every point in the child subtree reached by edge
   [w] is at tree distance exactly [w] from this node's pivot — so for
   a query at distance [d] from the pivot, only edges with
   [|d - w| <= radius] can hold members (triangle inequality on the raw
   Levenshtein metric, which is integer-valued and unquestionably a
   metric; the normalized edit distance is never relied upon).

   Built bulk-recursively: pivot drawn from a path-keyed DRBG,
   distances to the pivot evaluated across the pool, members bucketed
   by exact distance — a pure function of (space, seed), so the tree
   is bit-identical for every pool size. *)

type node = {
  v : int;                        (* pivot id *)
  children : (int * sub) array;   (* (edge distance, subtree), ascending edges *)
}

and sub = {
  maxlen : int;
  node : node;
}

type t = {
  space : Space.t;
  root : sub option;
}

let par_dist_cutoff = 192
let par_build_cutoff = 768

let maxlen_of space ids =
  Array.fold_left (fun acc i -> max acc (Space.len space i)) 0 ids

let rec build_node pool space ~seed ~path ids =
  let k = Array.length ids in
  let rng = Crypto.Drbg.create ~seed:(Printf.sprintf "%s/bk/%s" seed path) in
  let vi = Crypto.Drbg.uniform_int rng k in
  let v = ids.(vi) in
  let rest = Array.make (k - 1) 0 in
  let w = ref 0 in
  Array.iteri
    (fun i id ->
      if i <> vi then begin
        rest.(!w) <- id;
        incr w
      end)
    ids;
  let dists =
    if k - 1 >= par_dist_cutoff then
      Parallel.Pool.map_range pool (k - 1) (fun i -> Space.int_dist space v rest.(i))
    else Array.init (k - 1) (fun i -> Space.int_dist space v rest.(i))
  in
  (* bucket by exact distance; ascending (distance, id) order makes the
     bucket contents and their order a pure function of the values *)
  let order = Array.init (k - 1) (fun i -> i) in
  Array.sort
    (fun a b ->
      match Int.compare dists.(a) dists.(b) with
      | 0 -> Int.compare rest.(a) rest.(b)
      | c -> c)
    order;
  let buckets = ref [] in
  let i = ref 0 in
  while !i < k - 1 do
    let d = dists.(order.(!i)) in
    let j = ref !i in
    while !j < k - 1 && dists.(order.(!j)) = d do incr j done;
    let members = Array.init (!j - !i) (fun p -> rest.(order.(!i + p))) in
    buckets := (d, members) :: !buckets;
    i := !j
  done;
  let buckets = Array.of_list (List.rev !buckets) in
  let build_child ci =
    let d, members = buckets.(ci) in
    ( d,
      { maxlen = maxlen_of space members;
        node = build_node pool space ~seed ~path:(Printf.sprintf "%s/%d" path d) members } )
  in
  let children =
    if k >= par_build_cutoff && Array.length buckets > 1 then
      Parallel.Pool.map_range pool (Array.length buckets) build_child
    else Array.init (Array.length buckets) build_child
  in
  { v; children }

let build ?pool ~seed space =
  if not (Space.is_int_metric space) then
    invalid_arg "Index.Bk_tree: integer (edit) metric required";
  let pool = match pool with Some p -> p | None -> Parallel.Pool.global () in
  let root =
    Space.build ~name:"bk" space (fun ids ->
        if Array.length ids = 0 then None
        else
          Some
            { maxlen = maxlen_of space ids;
              node = build_node pool space ~seed ~path:"r" ids })
  in
  { space; root }

type stats = Space.stats = { probes : int; prunes : int }

(* eps-membership of point [j] from its integer distance [d] to the
   query (edit length [qlen]), without re-evaluating the pair: the very
   division [Features.edit] evaluates, so bit-identical to
   [Space.within] *)
let member sp ~eps ~qlen j d =
  let nl = max qlen (Space.len sp j) in
  if nl = 0 then 0.0 <= eps else float_of_int d /. float_of_int nl <= eps

(* Sound pruning radius for a subtree whose members' edit lengths are
   all <= [sublen]: membership means lev(q,j) / max(qlen, len j) <= eps,
   hence lev(q,j) <= eps * max(qlen, sublen) in the reals.  Distances
   are exact integers, and the 0.5 slack dominates any rounding of the
   eps * length product (integers differ by >= 1). *)
let radius ~eps ~qlen ~sublen = (eps *. float_of_int (max qlen sublen)) +. 0.5

let range_core t ~eps q =
  let sp = t.space in
  let qlen = Space.len sp q in
  let probes = ref 0 and prunes = ref 0 in
  let acc = ref [] in
  let rec walk sub =
    let { v; children } = sub.node in
    incr probes;
    let d = Space.int_dist sp q v in
    let df = float_of_int d in
    if v <> q && member sp ~eps ~qlen v d then acc := v :: !acc;
    Array.iter
      (fun (w, child) ->
        if Float.abs (df -. float_of_int w)
           <= radius ~eps ~qlen ~sublen:child.maxlen
        then walk child
        else incr prunes)
      children
  in
  (match t.root with None -> () | Some root -> walk root);
  (List.sort Int.compare !acc, Space.count_query ~probes:!probes ~prunes:!prunes)

let range_stats t ~eps q = range_core t ~eps q
let range t ~eps q = fst (range_core t ~eps q)

let rec fingerprint_node buf { v; children } =
  Buffer.add_string buf (string_of_int v);
  Buffer.add_char buf '(';
  Array.iteri
    (fun i (w, child) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%d:%d:" w child.maxlen);
      fingerprint_node buf child.node)
    children;
  Buffer.add_char buf ')'

let fingerprint t =
  match t.root with
  | None -> "empty"
  | Some root ->
    let buf = Buffer.create 1024 in
    fingerprint_node buf root.node;
    Buffer.contents buf

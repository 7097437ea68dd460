(* Vantage-point tree over a [Space.t].

   Construction is a pure function of (space, seed): the vantage of
   every node is drawn from a DRBG derived from the build seed and the
   node's tree path — never from scheduling — and the split is a median
   partition with a monomorphic total order, so the tree is
   bit-identical for every pool size.  The pool only decides
   *where* the vantage-distance batches and the two subtree builds run.

   Exactness: subtrees are discarded only when the triangle-inequality
   lower bound on the tree distance exceeds [Space.radius], which is a
   sound over-approximation of the eps-membership threshold; every
   surviving candidate is confirmed with the exact predicate
   ([Space.within] / [Space.member_of_tree_dist]).  An eps-range query
   therefore returns exactly the brute-force neighbor set. *)

type tree =
  | Leaf of int array  (* point ids, ascending *)
  | Node of {
      v : int;         (* vantage point id *)
      mu : float;      (* median tree-distance to [v] *)
      inside : sub;    (* members with tree_dist(v, .) <= mu *)
      outside : sub;   (* members with tree_dist(v, .) >  mu *)
    }

and sub = {
  maxlen : int;  (* max edit length over the subtree (0 for set spaces) *)
  tree : tree;
}

type t = {
  space : Space.t;
  root : sub;
}

let leaf_cap = 12

(* below these sizes the pool bookkeeping costs more than it saves *)
let par_dist_cutoff = 192
let par_build_cutoff = 768

let maxlen_of space ids =
  Array.fold_left (fun acc i -> max acc (Space.len space i)) 0 ids

let sub_of space ids tree = { maxlen = maxlen_of space ids; tree }

let rec build_tree pool space ~seed ~path ids =
  let k = Array.length ids in
  if k <= leaf_cap then begin
    let ids = Array.copy ids in
    Array.sort Int.compare ids;
    sub_of space ids (Leaf ids)
  end
  else begin
    let rng = Crypto.Drbg.create ~seed:(Printf.sprintf "%s/vp/%s" seed path) in
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
        Parallel.Pool.map_range pool (k - 1) (fun i ->
            Space.tree_dist space v rest.(i))
      else Array.init (k - 1) (fun i -> Space.tree_dist space v rest.(i))
    in
    let order = Array.init (k - 1) (fun i -> i) in
    (* total, monomorphic order: by distance then id — the partition is
       a pure function of the values, not of evaluation order *)
    Array.sort
      (fun a b ->
        match Float.compare dists.(a) dists.(b) with
        | 0 -> Int.compare rest.(a) rest.(b)
        | c -> c)
      order;
    let mid = (k - 2) / 2 in
    let mu = dists.(order.(mid)) in
    let n_in = ref 0 in
    Array.iter (fun i -> if dists.(i) <= mu then incr n_in) order;
    if !n_in = k - 1 then begin
      (* every member is at distance <= mu (all ties): no split exists;
         store the flat set *)
      let ids = Array.copy ids in
      Array.sort Int.compare ids;
      sub_of space ids (Leaf ids)
    end
    else begin
      let inside = Array.make !n_in 0 and outside = Array.make (k - 1 - !n_in) 0 in
      let wi = ref 0 and wo = ref 0 in
      Array.iter
        (fun i ->
          if dists.(i) <= mu then begin
            inside.(!wi) <- rest.(i);
            incr wi
          end
          else begin
            outside.(!wo) <- rest.(i);
            incr wo
          end)
        order;
      let build_in () =
        build_tree pool space ~seed ~path:(path ^ "i") inside
      and build_out () =
        build_tree pool space ~seed ~path:(path ^ "o") outside
      in
      let s_in, s_out =
        if k >= par_build_cutoff then Parallel.Pool.both pool build_in build_out
        else (build_in (), build_out ())
      in
      sub_of space
        (Array.append [| v |] (Array.append inside outside))
        (Node { v; mu; inside = s_in; outside = s_out })
    end
  end

let build ?pool ~seed space =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.global () in
  let root = Space.build ~name:"vp" space (build_tree pool space ~seed ~path:"r") in
  { space; root }

type stats = { probes : int; prunes : int }

let range_core t ~eps q =
  let sp = t.space in
  let qlen = Space.len sp q in
  let probes = ref 0 and prunes = ref 0 in
  let acc = ref [] in
  let rec walk sub =
    match sub.tree with
    | Leaf ids ->
      Array.iter
        (fun p ->
          if p <> q then begin
            incr probes;
            if Space.within sp ~eps q p then acc := p :: !acc
          end)
        ids
    | Node { v; mu; inside; outside } ->
      incr probes;
      let d = Space.tree_dist sp q v in
      if v <> q && Space.member_of_tree_dist sp ~eps ~qlen v d then
        acc := v :: !acc;
      if d -. mu <= Space.radius sp ~eps ~qlen ~sublen:inside.maxlen then
        walk inside
      else incr prunes;
      if mu -. d <= Space.radius sp ~eps ~qlen ~sublen:outside.maxlen then
        walk outside
      else incr prunes
  in
  walk t.root;
  Space.count_query ~probes:!probes ~prunes:!prunes;
  (List.sort Int.compare !acc, { probes = !probes; prunes = !prunes })

let range_stats t ~eps q = range_core t ~eps q
let range t ~eps q = fst (range_core t ~eps q)

let rec fingerprint_tree buf = function
  | Leaf ids ->
    Buffer.add_string buf "L[";
    Array.iteri
      (fun i id ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (string_of_int id))
      ids;
    Buffer.add_char buf ']'
  | Node { v; mu; inside; outside } ->
    Buffer.add_string buf (Printf.sprintf "N(%d;%.17g;%d;%d" v mu inside.maxlen outside.maxlen);
    Buffer.add_char buf ';';
    fingerprint_tree buf inside.tree;
    Buffer.add_char buf ';';
    fingerprint_tree buf outside.tree;
    Buffer.add_char buf ')'

let fingerprint t =
  let buf = Buffer.create 1024 in
  fingerprint_tree buf t.root.tree;
  Buffer.contents buf

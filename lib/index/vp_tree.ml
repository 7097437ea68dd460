(* Vantage-point tree over a [Space.t] of the Jaccard family, and the one
   index entry point: an edit space is handed to [Bk_tree] instead.

   Construction is a pure function of (space, seed): the vantage of
   every node is drawn from a DRBG derived from the build seed and the
   node's tree path — never from scheduling — and the split is a median
   partition with a monomorphic total order, so the tree is
   bit-identical for every pool size.  The pool only decides
   *where* the vantage-distance batches and the two subtree builds run.

   Exactness: the tree routes on the measure value itself, and subtrees
   are discarded only when the triangle-inequality lower bound exceeds
   [eps] plus a 1e-9 slack (the few-ulp gap between the computed Jaccard
   values and the real ones the triangle inequality holds for); every
   surviving candidate is confirmed with the exact predicate
   [Space.within], or with [d <= eps] on a vantage distance [d] already
   in hand.  An eps-range query therefore returns exactly the
   brute-force neighbor set. *)

type tree =
  | Leaf of int array  (* point ids, ascending *)
  | Node of {
      v : int;         (* vantage point id *)
      mu : float;      (* median distance to [v] *)
      inside : tree;   (* members with dist(v, .) <= mu *)
      outside : tree;  (* members with dist(v, .) >  mu *)
    }

type t =
  | Vp of { space : Space.t; root : tree }
  | Bk of Bk_tree.t

let leaf_cap = 12

(* below these sizes the pool bookkeeping costs more than it saves *)
let par_dist_cutoff = 192
let par_build_cutoff = 768

let sorted_leaf ids =
  let ids = Array.copy ids in
  Array.sort Int.compare ids;
  Leaf ids

let rec build_tree pool space ~seed ~path ids =
  let k = Array.length ids in
  if k <= leaf_cap then sorted_leaf ids
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
            Space.dist space v rest.(i))
      else Array.init (k - 1) (fun i -> Space.dist space v rest.(i))
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
    if !n_in = k - 1 then
      (* every member is at distance <= mu (all ties): no split exists;
         store the flat set *)
      sorted_leaf ids
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
      let inside, outside =
        if k >= par_build_cutoff then Parallel.Pool.both pool build_in build_out
        else (build_in (), build_out ())
      in
      Node { v; mu; inside; outside }
    end
  end

let build ?pool ~seed space =
  if Space.is_int_metric space then Bk (Bk_tree.build ?pool ~seed space)
  else begin
    let pool = match pool with Some p -> p | None -> Parallel.Pool.global () in
    let root = Space.build ~name:"vp" space (build_tree pool space ~seed ~path:"r") in
    Vp { space; root }
  end

type stats = Bk_tree.stats = { probes : int; prunes : int }

let vp_range sp root ~eps q =
  let radius = eps +. 1e-9 in
  let probes = ref 0 and prunes = ref 0 in
  let acc = ref [] in
  let rec walk = function
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
      let d = Space.dist sp q v in
      if v <> q && d <= eps then acc := v :: !acc;
      if d -. mu <= radius then walk inside else incr prunes;
      if mu -. d <= radius then walk outside else incr prunes
  in
  walk root;
  Space.count_query ~probes:!probes ~prunes:!prunes;
  (List.sort Int.compare !acc, { probes = !probes; prunes = !prunes })

let range_stats t ~eps q =
  match t with
  | Vp { space; root } -> vp_range space root ~eps q
  | Bk bk -> Bk_tree.range_stats bk ~eps q

let range t ~eps q = fst (range_stats t ~eps q)

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
    Buffer.add_string buf (Printf.sprintf "N(%d;%.17g;" v mu);
    fingerprint_tree buf inside;
    Buffer.add_char buf ';';
    fingerprint_tree buf outside;
    Buffer.add_char buf ')'

let fingerprint = function
  | Bk bk -> Bk_tree.fingerprint bk
  | Vp { root; _ } ->
    let buf = Buffer.create 1024 in
    fingerprint_tree buf root;
    Buffer.contents buf

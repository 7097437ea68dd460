type merge = {
  left : int;
  right : int;
  height : float;
}

module W = Dist_matrix.Work

let m_merges = Obs.Registry.counter "kitdpe.mining.hier.merges"
let m_cluster_dists = Obs.Registry.counter "kitdpe.mining.hier.cluster_dists"

(* Agglomerates down to [k] clusters and returns the merges and the
   clusters' members, by first member.  [w] holds the distance of every
   pair of alive slots.  A merge keeps the lower slot, so slot [s]'s
   smallest member stays [s].

   The nearest-neighbour cache: [nn.(i)] is the alive slot [j] with
   [id.(j) > id.(i)] that is smallest by (distance, [id.(j)]), or -1
   when there is none; [nd.(i)] is that distance, or [infinity].  The
   closest pair by (distance, smaller id, larger id) is then the row
   smallest by ([nd], [id]).  A merge gives slot [a] the largest id, so
   [a] has no neighbour, and only the distances to [a] change: a row
   whose neighbour was [a] or [b] is rescanned, any other takes [a]
   only if strictly closer (on a tie the older, smaller id wins). *)
let agglomerate m ~k =
  let n = Dist_matrix.size m in
  Obs.Span.with_span ~cat:"mining" (Printf.sprintf "hier.merges(n=%d)" n)
    (fun () ->
      let w = W.copy m in
      let id = Array.init n Fun.id in
      let members = Array.init n (fun i -> [ i ]) in
      (* the [r] alive slots, ascending *)
      let alive = Array.init n Fun.id in
      let r = ref n in
      let nn = Array.make n (-1) and nd = Array.make n infinity in
      (* neighbour-finding reads of [w], flushed to the counter *)
      let reads = ref 0 in
      (* whether slot [j] at distance [d] replaces row [i]'s neighbour;
         never for a NaN [d] *)
      let closer i j d =
        d < nd.(i) || (d = nd.(i) && (nn.(i) < 0 || id.(j) < id.(nn.(i))))
      in
      let rescan i =
        nn.(i) <- -1;
        nd.(i) <- infinity;
        for q = 0 to !r - 1 do
          let j = alive.(q) in
          if id.(j) > id.(i) then begin
            incr reads;
            let d = W.get w i j in
            if closer i j d then begin
              nn.(i) <- j;
              nd.(i) <- d
            end
          end
        done
      in
      if n > k then
        for i = 0 to n - 1 do
          rescan i
        done;
      let out = ref [] in
      while !r > k do
        Parallel.Pool.check_deadline ~context:"Mining.Hier.merges" ();
        Obs.Metric.add m_cluster_dists !reads;
        reads := 0;
        (* row ids are distinct, so (nd, id) orders the rows totally *)
        let bi = ref (-1) in
        for q = 0 to !r - 1 do
          let i = alive.(q) in
          if nn.(i) >= 0
             && (!bi < 0 || nd.(i) < nd.(!bi) || (nd.(i) = nd.(!bi) && id.(i) < id.(!bi)))
          then bi := i
        done;
        if !bi < 0 then
          raise
            (Fault.Error.E
               (Fault.Error.Invariant
                  { context = "Mining.Hier.merges"; reason = "every cluster distance is NaN" }));
        let i = !bi in
        let j = nn.(i) in
        let a = Int.min i j and b = Int.max i j in
        out := { left = id.(i); right = id.(j); height = nd.(i) } :: !out;
        (* merged clusters take ids n, n + 1, … *)
        id.(a) <- (2 * n) - !r;
        members.(a) <- List.rev_append members.(b) members.(a);
        let qb = ref 0 in
        while alive.(!qb) <> b do
          incr qb
        done;
        Array.blit alive (!qb + 1) alive !qb (!r - !qb - 1);
        decr r;
        Obs.Metric.incr m_merges;
        nn.(a) <- -1;
        nd.(a) <- infinity;
        for q = 0 to !r - 1 do
          let x = alive.(q) in
          if x <> a then begin
            let d = Float.max (W.get w x a) (W.get w x b) in
            W.set w x a d;
            if nn.(x) = a || nn.(x) = b then rescan x
            else begin
              incr reads;
              if closer x a d then begin
                nn.(x) <- a;
                nd.(x) <- d
              end
            end
          end
        done
      done;
      Obs.Metric.add m_cluster_dists !reads;
      (List.rev !out, Array.init !r (fun p -> members.(alive.(p)))))

let dendrogram m = fst (agglomerate m ~k:1)

let cut_k k m =
  let n = Dist_matrix.size m in
  if k <= 0 || k > n then invalid_arg "Hier.cut_k: k out of range";
  let labels = Array.make n (-1) in
  Array.iteri
    (fun label cluster -> List.iter (fun i -> labels.(i) <- label) cluster)
    (snd (agglomerate m ~k));
  labels

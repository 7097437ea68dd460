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
   smallest member stays [s]. *)
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
      let out = ref [] in
      while !r > k do
        Parallel.Pool.check_deadline ~context:"Mining.Hier.merges" ();
        Obs.Metric.add m_cluster_dists (!r * (!r - 1) / 2);
        (* the closest pair by (distance, smaller id, larger id) *)
        let bd = ref infinity and blo = ref max_int and bhi = ref max_int in
        let bp = ref 0 and bq = ref 0 in
        for p = 0 to !r - 2 do
          let i = alive.(p) in
          for q = p + 1 to !r - 1 do
            let j = alive.(q) in
            let d = W.get w i j in
            if d <= !bd then begin
              let lo = Int.min id.(i) id.(j) and hi = Int.max id.(i) id.(j) in
              if d < !bd || lo < !blo || (lo = !blo && hi < !bhi) then begin
                bd := d;
                blo := lo;
                bhi := hi;
                bp := p;
                bq := q
              end
            end
          done
        done;
        let a = alive.(!bp) and b = alive.(!bq) in
        for p = 0 to !r - 1 do
          let x = alive.(p) in
          if x <> a && x <> b then
            W.set w x a (Float.max (W.get w x a) (W.get w x b))
        done;
        (* merged clusters take ids n, n + 1, … *)
        id.(a) <- (2 * n) - !r;
        members.(a) <- List.rev_append members.(b) members.(a);
        Array.blit alive (!bq + 1) alive !bq (!r - !bq - 1);
        decr r;
        Obs.Metric.incr m_merges;
        out := { left = !blo; right = !bhi; height = !bd } :: !out
      done;
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

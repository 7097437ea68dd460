type params = { k : int; max_iter : int }

let m_runs = Obs.Registry.counter "kitdpe.mining.kmedoids.runs"
let m_iterations = Obs.Registry.counter "kitdpe.mining.kmedoids.iterations"

(* Park–Jun initialization: pick the k objects with the smallest total
   normalized distance to everything else (most central objects). *)
let initial_medoids k m =
  let n = Dist_matrix.size m in
  let col_sum = Array.init n (fun j ->
      let s = ref 0.0 in
      for i = 0 to n - 1 do s := !s +. Dist_matrix.get m i j done;
      !s)
  in
  let score = Array.init n (fun j ->
      let s = ref 0.0 in
      for i = 0 to n - 1 do
        if col_sum.(i) > 0.0 then
          s := !s +. (Dist_matrix.get m i j /. col_sum.(i))
      done;
      (!s, j))
  in
  (* monomorphic comparator (PERF01): scores are finite (never nan), so
     this orders exactly like the polymorphic compare on the pairs *)
  Array.sort
    (fun (a, i) (b, j) ->
      match Float.compare a b with 0 -> Int.compare i j | c -> c)
    score;
  Array.init k (fun i -> snd score.(i))

let assign m medoids =
  let n = Dist_matrix.size m in
  Array.init n (fun i ->
      let best = ref 0 and best_d = ref infinity in
      Array.iteri
        (fun c mid ->
          let d = Dist_matrix.get m i mid in
          if d < !best_d then begin
            best := c;
            best_d := d
          end)
        medoids;
      !best)

let update_medoids m labels k =
  let n = Dist_matrix.size m in
  Array.init k (fun c ->
      let members = List.filter (fun i -> labels.(i) = c) (List.init n Fun.id) in
      match members with
      | [] -> -1
      | _ ->
        (* the member minimizing total intra-cluster distance; ties break
           to the lowest index for determinism.  The accumulation abandons
           a candidate as soon as its partial sum reaches the incumbent:
           distances are non-negative and float addition of non-negatives
           is monotone, so the full sum could not win the strict [<]
           either — the chosen medoid is identical to the full
           evaluation's. *)
        let best = ref (List.hd members) and best_cost = ref infinity in
        List.iter
          (fun cand ->
            let rec accum acc = function
              | [] -> Some acc
              | i :: rest ->
                let acc = acc +. Dist_matrix.get m cand i in
                if acc >= !best_cost then None else accum acc rest
            in
            match accum 0.0 members with
            | None -> ()
            | Some cost ->
              (* the final abandon check already established
                 [cost < !best_cost] *)
              best := cand;
              best_cost := cost)
          members;
        !best)

let run_full { k; max_iter } m =
  let n = Dist_matrix.size m in
  if k <= 0 || k > n then invalid_arg "Kmedoids: k out of range";
  Obs.Span.with_span ~cat:"mining" (Printf.sprintf "kmedoids(n=%d,k=%d)" n k)
    (fun () ->
      Obs.Metric.incr m_runs;
      let medoids = ref (initial_medoids k m) in
      let labels = ref (assign m !medoids) in
      let continue = ref true in
      let iter = ref 0 in
      while !continue && !iter < max_iter do
        incr iter;
        Obs.Metric.incr m_iterations;
        let medoids' = update_medoids m !labels k in
        (* a cluster can become empty only on degenerate inputs: keep the
           old medoid in that case *)
        Array.iteri
          (fun c mid -> if mid = -1 then medoids'.(c) <- !medoids.(c))
          medoids';
        if medoids' = !medoids then continue := false
        else begin
          medoids := medoids';
          labels := assign m !medoids
        end
      done;
      (!medoids, !labels))

let run p m = snd (run_full p m)

let total_cost m medoids =
  let n = Dist_matrix.size m in
  let cost = ref 0.0 in
  for i = 0 to n - 1 do
    cost :=
      !cost
      +. Array.fold_left
           (fun best mid -> Float.min best (Dist_matrix.get m i mid))
           infinity medoids
  done;
  !cost

(* [total_cost] with early abandon: [Some cost] iff the full sum (same
   additions, same order) is [< limit], [None] as soon as the running
   total reaches [limit].  Per-point contributions are non-negative, so
   a partial sum at [limit] already decides the strict comparison. *)
let total_cost_within m medoids ~limit =
  let n = Dist_matrix.size m in
  let cost = ref 0.0 in
  let i = ref 0 in
  while !i < n && !cost < limit do
    cost :=
      !cost
      +. Array.fold_left
           (fun best mid -> Float.min best (Dist_matrix.get m !i mid))
           infinity medoids;
    incr i
  done;
  if !i = n && !cost < limit then Some !cost else None

let run_pam p m =
  let n = Dist_matrix.size m in
  let medoids, _ = run_full p m in
  let medoids = Array.copy medoids in
  let improved = ref true in
  (* a generous sweep bound; convergence is usually immediate *)
  let sweeps = ref 0 in
  while !improved && !sweeps < p.max_iter do
    improved := false;
    incr sweeps;
    let current = ref (total_cost m medoids) in
    for c = 0 to p.k - 1 do
      for cand = 0 to n - 1 do
        if not (Array.exists (( = ) cand) medoids) then begin
          let old = medoids.(c) in
          medoids.(c) <- cand;
          (* early-abandoning cost: identical accept/reject decisions to
             computing [total_cost] in full against the same threshold *)
          match total_cost_within m medoids ~limit:(!current -. 1e-12) with
          | Some cost ->
            current := cost;
            improved := true
          | None -> medoids.(c) <- old
        end
      done
    done
  done;
  assign m medoids

let medoids p m =
  let ms, _ = run_full p m in
  Array.sort Int.compare ms;
  ms

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
  let t0 = Obs.time_start () in
  Obs.Metric.incr m_runs;
  let medoids = ref (initial_medoids k m) in
  let labels = ref (assign m !medoids) in
  let continue = ref true in
  let iter = ref 0 in
  while !continue && !iter < max_iter do
    incr iter;
    Obs.Metric.incr m_iterations;
    let medoids' = update_medoids m !labels k in
    (* a cluster can become empty only on degenerate inputs: keep the old
       medoid in that case *)
    Array.iteri (fun c mid -> if mid = -1 then medoids'.(c) <- !medoids.(c)) medoids';
    if medoids' = !medoids then continue := false
    else begin
      medoids := medoids';
      labels := assign m !medoids
    end
  done;
  if t0 > 0 then
    Obs.Span.record ~cat:"mining"
      ~name:(Printf.sprintf "kmedoids(n=%d,k=%d)" n k)
      ~ts_ns:t0 ~dur_ns:(Obs.now_ns () - t0) ();
  (!medoids, !labels)

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

(* ---- CLARANS (Ng & Han): randomized-sampled PAM for large n ----

   PAM examines every (medoid, non-medoid) swap per sweep: O(k·(n-k)·n)
   distance evaluations, on top of an O(n²) matrix.  CLARANS walks the
   same swap graph but examines only [max_neighbor] uniformly sampled
   neighbors of the current node before declaring it a local optimum,
   and restarts [num_local] times keeping the best.  It needs no matrix
   — only a distance function — so it is the k-medoids engine for logs
   too large to materialize.

   The swap delta is computed in O(n) from nearest/second-nearest
   bookkeeping (the standard PAM decomposition): for a swap replacing
   the medoid in slot [c] with candidate [h], point [i] contributes
   [min d(i,h) d2(i) - d1(i)] if its nearest medoid is the one leaving,
   and [min (d(i,h) - d1(i)) 0] otherwise.

   Determinism: the walk consumes randomness only through the
   caller-supplied [rand] in a fixed order, so a deterministic [rand]
   (e.g. Crypto.Drbg-backed) makes the whole run a pure function of
   (rand, params, d). *)

type clarans_params = { c_k : int; num_local : int; max_neighbor : int }

let clarans_nearest ~k ~d medoids near d1 d2 n =
  for i = 0 to n - 1 do
    let b = ref 0 and bd = ref infinity and sd = ref infinity in
    for c = 0 to k - 1 do
      let dd = d i medoids.(c) in
      if dd < !bd then begin
        sd := !bd;
        bd := dd;
        b := c
      end
      else if dd < !sd then sd := dd
    done;
    near.(i) <- !b;
    d1.(i) <- !bd;
    d2.(i) <- !sd
  done

let run_clarans_full ~rand { c_k = k; num_local; max_neighbor } ~n ~d =
  if k <= 0 || k > n then invalid_arg "Kmedoids.clarans: k out of range";
  if num_local <= 0 || max_neighbor <= 0 then
    invalid_arg "Kmedoids.clarans: num_local/max_neighbor must be positive";
  let t0 = Obs.time_start () in
  Obs.Metric.incr m_runs;
  let best_medoids = ref [||] and best_cost = ref infinity in
  for _local = 1 to num_local do
    let medoids = Array.make k 0 in
    let is_medoid = Array.make n false in
    let filled = ref 0 in
    while !filled < k do
      let cand = rand n in
      if not is_medoid.(cand) then begin
        is_medoid.(cand) <- true;
        medoids.(!filled) <- cand;
        incr filled
      end
    done;
    let near = Array.make n 0 in
    let d1 = Array.make n infinity in
    let d2 = Array.make n infinity in
    clarans_nearest ~k ~d medoids near d1 d2 n;
    let examined = ref 0 in
    while !examined < max_neighbor do
      incr examined;
      Obs.Metric.incr m_iterations;
      let c = rand k in
      let h = ref (rand n) in
      (* re-draw when the candidate is already a medoid; bounded so a
         pathological rand cannot spin forever (a medoid draw is then
         simply a wasted neighbor) *)
      let redraws = ref 0 in
      while is_medoid.(!h) && !redraws < 64 do
        h := rand n;
        incr redraws
      done;
      if not is_medoid.(!h) then begin
        let h = !h in
        let delta = ref 0.0 in
        for i = 0 to n - 1 do
          let dh = d i h in
          if near.(i) = c then
            delta := !delta +. (Float.min dh d2.(i) -. d1.(i))
          else if dh < d1.(i) then delta := !delta +. (dh -. d1.(i))
        done;
        if !delta < -1e-12 then begin
          is_medoid.(medoids.(c)) <- false;
          is_medoid.(h) <- true;
          medoids.(c) <- h;
          clarans_nearest ~k ~d medoids near d1 d2 n;
          (* moved to a better node: restart its neighbor count *)
          examined := 0
        end
      end
    done;
    let cost = Array.fold_left ( +. ) 0.0 d1 in
    if cost < !best_cost then begin
      best_cost := cost;
      best_medoids := Array.copy medoids
    end
  done;
  let medoids = !best_medoids in
  (* same tie rule as [assign]: strict [<], first (lowest) slot wins *)
  let labels =
    Array.init n (fun i ->
        let b = ref 0 and bd = ref infinity in
        for c = 0 to k - 1 do
          let dd = d i medoids.(c) in
          if dd < !bd then begin
            b := c;
            bd := dd
          end
        done;
        !b)
  in
  if t0 > 0 then
    Obs.Span.record ~cat:"mining"
      ~name:(Printf.sprintf "clarans(n=%d,k=%d)" n k)
      ~ts_ns:t0 ~dur_ns:(Obs.now_ns () - t0) ();
  (medoids, labels, !best_cost)

let run_clarans ~rand p ~n ~d =
  let _, labels, _ = run_clarans_full ~rand p ~n ~d in
  labels

let medoids p m =
  let ms, _ = run_full p m in
  Array.sort Int.compare ms;
  ms

type t = float array array

let m_evals = Obs.Registry.counter "kitdpe.mining.dist_matrix.evals"
let m_build = Obs.Registry.sketch "kitdpe.mining.dist_matrix.build"

(* Where did the wall-clock go?  [of_fun_r] counts every distance
   evaluation (the n(n-1)/2 upper-triangle calls) and records one span
   per matrix build.  The counting closure is allocated once per matrix
   and only when observability is on; the disabled path is the bare
   builder. *)
let build_instrumented ?pool n d =
  let build = Parallel.Sym_matrix.build_r ?pool in
  if not (Obs.is_enabled ()) then build n d
  else begin
    let t0 = Obs.now_ns () in
    let d i j =
      Obs.Metric.incr m_evals;
      d i j
    in
    let m = build n d in
    let dt = Obs.now_ns () - t0 in
    Obs.observe_latency m_build dt;
    Obs.Span.record ~cat:"mining"
      ~name:(Printf.sprintf "dist_matrix(n=%d)" n)
      ~ts_ns:t0 ~dur_ns:dt ();
    m
  end

(* cells are identified by (i, j) with j < 2^20 — plenty for any matrix
   this repository builds — giving each evaluation a stable injection
   key independent of row scheduling *)
let eval_key i j = (i lsl 20) lor j

let of_fun_r ?pool n d =
  let d =
    if Fault.enabled () then (fun i j ->
      Fault.point ~key:(eval_key i j) "mining.dist_matrix.eval";
      d i j)
    else d
  in
  Result.map_error
    (List.map (fun (index, cause) ->
         Fault.Error.Task_failed { label = "dist_matrix.row"; index; cause }))
    (build_instrumented ?pool n d)

let of_fun ?pool n d = Fault.Error.get_ok (of_fun_r ?pool n d)

let size (m : t) = Array.length m
let get (m : t) i j = m.(i).(j)

exception Bad of string

let validate m =
  let n = size m in
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  try
    Array.iteri
      (fun i row ->
        if Array.length row <> n then
          bad "row %d has length %d, expected %d" i (Array.length row) n)
      m;
    for i = 0 to n - 1 do
      if m.(i).(i) <> 0.0 then bad "diagonal (%d,%d) is %g" i i m.(i).(i);
      for j = i + 1 to n - 1 do
        if m.(i).(j) <> m.(j).(i) then bad "asymmetry at (%d,%d)" i j;
        if m.(i).(j) < 0.0 then bad "negative distance at (%d,%d)" i j
      done
    done;
    Ok ()
  with Bad p -> Error p

let max_abs_diff a b =
  let n = size a in
  if size b <> n then
    raise
      (Fault.Error.E
         (Fault.Error.Invariant
            { context = "Mining.Dist_matrix.max_abs_diff"; reason = "size mismatch" }));
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    let ra = a.(i) and rb = b.(i) in
    (* distance matrices are symmetric: the upper triangle (diagonal
       included) covers every distinct entry at half the cost *)
    for j = i to n - 1 do
      let d = Float.abs (ra.(j) -. rb.(j)) in
      if d > !worst then worst := d
    done
  done;
  !worst

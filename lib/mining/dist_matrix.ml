type t = float array array

let m_build = Obs.Registry.sketch "kitdpe.mining.dist_matrix.build"

(* below this many rows the n(n-1)/2 evaluations are too cheap to
   amortize task dispatch *)
let par_threshold = 64

(* cells are identified by (i, j) with j < 2^20 — plenty for any matrix
   this repository builds — giving each evaluation a stable injection
   key independent of row scheduling *)
let eval_key i j = (i lsl 20) lor j

let context = "Mining.Dist_matrix.of_fun_r"

let of_fun_r ?pool n d =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.global () in
  let t0 = Obs.time_start () in
  let m = Array.make_matrix n n 0.0 in
  let faults = Fault.enabled () in
  (* Lanes write disjoint cells: row [i] owns [m.(i).(j)] for [j > i]
     plus the mirror cells [m.(j).(i)], i.e. column [i] below the
     diagonal; the pool's strided rows balance the triangular costs. *)
  let fill i =
    let row = m.(i) in
    for j = i + 1 to n - 1 do
      if faults then Fault.point ~key:(eval_key i j) "mining.dist_matrix.eval";
      let v = d i j in
      row.(j) <- v;
      m.(j).(i) <- v
    done
  in
  let errors =
    if n < par_threshold || Parallel.Pool.size pool <= 1 then begin
      (* the pool's containment contract, sequentially: a failing row is
         reported, the remaining rows are still built, and an expired
         request deadline abandons the remaining rows *)
      let errs = ref [] in
      for i = 0 to n - 1 do
        match
          Parallel.Pool.check_deadline ~context ();
          fill i
        with
        | () -> ()
        | exception e -> errs := (i, Fault.Error.of_exn ~context e) :: !errs
      done;
      List.rev !errs
    end
    else Parallel.Pool.for_range_r pool n fill
  in
  if t0 > 0 then begin
    let dt = Obs.now_ns () - t0 in
    Obs.observe_latency m_build dt;
    Obs.Span.record ~cat:"mining"
      ~name:(Printf.sprintf "dist_matrix(n=%d)" n)
      ~ts_ns:t0 ~dur_ns:dt ()
  end;
  match errors with
  | [] -> Ok m
  | errors ->
    Error
      (List.map
         (fun (index, cause) ->
           Fault.Error.Task_failed { label = "dist_matrix.row"; index; cause })
         errors)

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

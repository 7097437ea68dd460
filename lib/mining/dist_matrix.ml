(* row [i] owns the cells (i, j), j > i, at [cells.(rows.(i) + j)]; the
   diagonal is implicit *)
type t = { rows : int array; cells : Float.Array.t }

let create n =
  { rows = Array.init n (fun i -> (i * (2 * n - i - 1) / 2) - i - 1);
    cells = Float.Array.make (n * (n - 1) / 2) 0.0 }

let m_build = Obs.Registry.sketch "kitdpe.mining.dist_matrix.build"

(* below this many rows the n(n-1)/2 evaluations are too cheap to
   amortize task dispatch: the fill runs on a 1-lane pool, which spawns
   no domain and runs every row in the caller *)
let par_threshold = 64
let sequential = Parallel.Pool.create ~domains:1 ()

(* cells are identified by (i, j) with j < 2^20 — plenty for any matrix
   this repository builds — giving each evaluation a stable injection
   key independent of row scheduling *)
let eval_key i j = (i lsl 20) lor j

let of_fun_r ?pool n d =
  let pool =
    match pool with
    | _ when n < par_threshold -> sequential
    | Some p -> p
    | None -> Parallel.Pool.global ()
  in
  let m = create n in
  let faults = Fault.enabled () in
  (* lanes write disjoint rows; the pool's strided rows balance the
     triangular costs *)
  let fill i =
    let base = m.rows.(i) and d_i = d i in
    for j = i + 1 to n - 1 do
      if faults then Fault.point ~key:(eval_key i j) "mining.dist_matrix.eval";
      Float.Array.set m.cells (base + j) (d_i j)
    done
  in
  Obs.Span.with_span ~sketch:m_build ~cat:"mining"
    (Printf.sprintf "dist_matrix(n=%d)" n)
    (fun () -> Parallel.Pool.map_range_r pool ~label:"dist_matrix.row" n fill)
  |> Result.map (fun _ -> m)

let of_fun ?pool n d = Fault.Error.get_ok (of_fun_r ?pool n d)

let size m = Array.length m.rows

let get m i j =
  (* both row lookups are bounds-checked: a packed offset alone could
     put an index outside [0, n) on another row's cell *)
  let ri = m.rows.(i) and rj = m.rows.(j) in
  if i < j then Float.Array.unsafe_get m.cells (ri + j)
  else if i > j then Float.Array.unsafe_get m.cells (rj + i)
  else 0.0

let invariant context reason =
  raise (Fault.Error.E (Fault.Error.Invariant { context; reason }))

module Work = struct
  type nonrec t = t

  (* the offset table is never written, so the copy shares it *)
  let copy m = { m with cells = Float.Array.copy m.cells }

  let get = get

  let set m i j v =
    let ri = m.rows.(i) and rj = m.rows.(j) in
    if i < j then Float.Array.unsafe_set m.cells (ri + j) v
    else if i > j then Float.Array.unsafe_set m.cells (rj + i) v
    else invariant "Mining.Dist_matrix.Work.set" "the diagonal is fixed at 0.0"
end

let prefix m k =
  if k < 0 || k > size m then
    invariant "Mining.Dist_matrix.prefix" "block size out of range";
  let block = create k in
  (* row [i] of the block is the first [k - 1 - i] cells of row [i] *)
  for i = 0 to k - 2 do
    Float.Array.blit m.cells (m.rows.(i) + i + 1) block.cells
      (block.rows.(i) + i + 1) (k - 1 - i)
  done;
  block

let validate m =
  (* [>=] is false for NaN too *)
  if Float.Array.for_all (fun v -> v >= 0.0) m.cells then Ok ()
  else Error "a distance is negative or NaN"

let max_abs_diff a b =
  if size a <> size b then
    invariant "Mining.Dist_matrix.max_abs_diff" "size mismatch";
  let worst = ref 0.0 in
  for k = 0 to Float.Array.length a.cells - 1 do
    let d = Float.abs (Float.Array.get a.cells k -. Float.Array.get b.cells k) in
    if d > !worst then worst := d
  done;
  !worst

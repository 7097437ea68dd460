(* DDSketch-style relative-error quantile sketch.

   A value v >= 2 lands in bucket ceil(log_gamma v) with
   gamma = (1+alpha)/(1-alpha); reporting the bucket's harmonic midpoint
   2*gamma^i/(gamma+1) guarantees a relative error of at most alpha for
   any quantile (bucket 0 collects v <= 1, the top bucket clamps), in a
   fixed-size integer-indexed array — no tree, no rebalancing.

   Concurrency follows [Metric]: each touched bucket is an array of
   per-domain [Shard] cells updated with one [Atomic.fetch_and_add] and
   merged on read.  Shard arrays are installed lazily (CAS against a shared
   empty sentinel) so an idle sketch is one pointer array, not
   bucket_count * Shard.count atomics; a timing distribution touches a
   few dozen buckets in practice.  All updates are gated on
   [Control.is_on]: disabled, [observe] costs one atomic load and
   allocates nothing. *)

let alpha = 0.01
let gamma = (1.0 +. alpha) /. (1.0 -. alpha)
let log_gamma = log gamma

(* gamma^1499 ~ 1.1e13 ns (~3 hours); longer observations clamp into the
   top bucket, which only ever *underestimates* their latency *)
let bucket_count = 1500

let bucket_of v =
  if v <= 1 then 0
  else begin
    let i = int_of_float (Float.ceil (log (float_of_int v) /. log_gamma)) in
    if i < 1 then 1 else if i >= bucket_count then bucket_count - 1 else i
  end

let value_of_bucket i =
  if i <= 0 then 1.0 else 2.0 *. exp (float_of_int i *. log_gamma) /. (gamma +. 1.0)

type exemplar = { ex_value : int; ex_trace : int; ex_span : int }

let no_exemplar = { ex_value = 0; ex_trace = 0; ex_span = 0 }

(* shared sentinel for never-touched buckets; compared with (==) *)
let empty_cells : Shard.cells = [||]

type t = {
  buckets : Shard.cells Atomic.t array;
  sum : Shard.cells;
  count : Shard.cells;
  max_v : int Atomic.t;
  ex : exemplar Atomic.t;
}

let create () =
  { buckets = Array.init bucket_count (fun _ -> Atomic.make empty_cells);
    sum = Shard.make ();
    count = Shard.make ();
    max_v = Atomic.make 0;
    ex = Atomic.make no_exemplar }

let bucket_cells t i =
  let cur = Atomic.get t.buckets.(i) in
  if cur != empty_cells then cur
  else begin
    let fresh = Shard.make () in
    if Atomic.compare_and_set t.buckets.(i) empty_cells fresh then fresh
    else Atomic.get t.buckets.(i)
  end

let observe t ?(trace_id = 0) ?(span_id = 0) v =
  if Control.is_on () then begin
    let s = Shard.index () in
    ignore (Atomic.fetch_and_add (bucket_cells t (bucket_of v)).(s) 1);
    ignore (Atomic.fetch_and_add t.sum.(s) v);
    ignore (Atomic.fetch_and_add t.count.(s) 1);
    (* max + exemplar: a CAS race can pair an exemplar with a
       concurrently-set larger max; both remain *observed* outliers, so
       best-effort is fine for a debugging breadcrumb *)
    let rec bump () =
      let m = Atomic.get t.max_v in
      if v > m then
        if Atomic.compare_and_set t.max_v m v then
          Atomic.set t.ex { ex_value = v; ex_trace = trace_id; ex_span = span_id }
        else bump ()
    in
    bump ()
  end

let count t = Shard.merge t.count
let sum t = Shard.merge t.sum
let max_value t = Atomic.get t.max_v

let exemplar t =
  let e = Atomic.get t.ex in
  if e.ex_value = 0 then None else Some e

let sparse t =
  let out = ref [] in
  for i = bucket_count - 1 downto 0 do
    let c = Atomic.get t.buckets.(i) in
    if c != empty_cells then begin
      let n = Shard.merge c in
      if n > 0 then out := (i, n) :: !out
    end
  done;
  !out

(* rank convention: the q-quantile of n values is the ceil(q*n)-th
   smallest (1-based); [quantile_of_sparse] walks the cumulative counts
   to the bucket holding that rank.  Tests compare against
   sorted.(ceil(q*n) - 1) with the same convention. *)
let quantile_of_sparse buckets q =
  let n = List.fold_left (fun acc (_, c) -> acc + c) 0 buckets in
  if n = 0 then None
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    let rank = min rank n in
    let rec walk cum = function
      | [] -> None (* unreachable: cum reaches n *)
      | (i, c) :: rest ->
        if cum + c >= rank then Some (value_of_bucket i) else walk (cum + c) rest
    in
    walk 0 buckets
  end

let quantile t q = quantile_of_sparse (sparse t) q

let reset t =
  Array.iter
    (fun slot ->
      let c = Atomic.get slot in
      if c != empty_cells then Shard.clear c)
    t.buckets;
  Shard.clear t.sum;
  Shard.clear t.count;
  Atomic.set t.max_v 0;
  Atomic.set t.ex no_exemplar

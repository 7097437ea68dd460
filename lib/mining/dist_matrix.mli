(** Symmetric pairwise distance matrices — the only input the distance-based
    mining algorithms ([3] [4] [5] [6]) ever see, which is precisely why
    distance-preserving encryption preserves their output.

    Abstract: the strict upper triangle, row-major, in one [Float.Array]
    of n(n−1)/2 cells (64 MiB at n = 4096, half the full square), plus n
    row offsets.  Row [i] owns the cells [(i, j)], [j > i]. *)

type t

val of_fun_r :
  ?pool:Parallel.Pool.t ->
  int ->
  (int -> int -> float) ->
  (t, Fault.Error.t list) result
(** [of_fun_r n d] evaluates [d i j] once for each [i < j] (never for
    [i >= j]): the one matrix fill of the repository, used by
    {!Distance.Measure.matrix_r} and the result measure.  Row [i] writes
    its cells [j > i] and applies [d i] once, so a staged [d] does its
    per-query work once per row.  The rows are one
    [Parallel.Pool.map_range_r ~label:"dist_matrix.row"] batch across
    [pool] (default [Parallel.Pool.global ()]), or on a 1-lane pool
    below 64 rows.  [d] must be pure (or at least domain-safe), so the
    result is bit-for-bit identical for every pool size.

    Crash-contained by that batch: a row whose evaluations raise is
    reported as [Task_failed {label = "dist_matrix.row"; index; cause}]
    while all other rows still compute; [Ok] only when the matrix is
    complete.  The request deadline is checked once per row, and an
    expired one abandons the remaining rows.  Every row passes the
    ["parallel.pool.task"] point keyed by row, for every pool size, and
    every cell the ["mining.dist_matrix.eval"] point keyed by cell
    coordinates.  With telemetry on, the fill is timed into the
    [kitdpe.mining.dist_matrix.build] sketch and a [dist_matrix(n=…)]
    span. *)

val of_fun : ?pool:Parallel.Pool.t -> int -> (int -> int -> float) -> t
(** {!of_fun_r}, raising [Fault.Error.E] of the first row error. *)

val size : t -> int

val get : t -> int -> int -> float
(** [0.0] on the diagonal; [(j, i)] reads [(i, j)].  O(1), no allocation:
    two row-offset loads, a comparison and one cell load.
    @raise Invalid_argument unless [0 <= i, j < size m]. *)

(** A mutable copy of a matrix, of its own type so that no caller can
    write to a shared {!t}: complete link's working matrix ({!Hier}).
    [copy] takes another n(n−1)/2 floats (64 MiB at n = 4096), [get] is
    {!Dist_matrix.get}, and [set w i j v] writes [(i, j)] and so
    [(j, i)], raising [Fault.Error.E (Invariant _)] when [i = j]. *)
module Work : sig
  type matrix := t
  type t
  val copy : matrix -> t
  val get : t -> int -> int -> float
  val set : t -> int -> int -> float -> unit
end

val prefix : t -> int -> t
(** [prefix m k] copies the block of points [0 .. k-1] without evaluating
    any distance: no injection point, no fill span.
    @raise Fault.Error.E [(Invariant _)] unless [0 <= k <= size m]. *)

val validate : t -> (unit, string) result
(** Checks that every distance is [>= 0.0], which also rejects NaN;
    symmetry and a zero diagonal hold by construction. *)

val max_abs_diff : t -> t -> float
(** Largest entrywise deviation between two matrices of the same size,
    in one pass over the stored cells.
    @raise Fault.Error.E [(Invariant _)] on a size mismatch. *)

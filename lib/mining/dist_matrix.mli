(** Symmetric pairwise distance matrices — the only input the distance-based
    mining algorithms ([3] [4] [5] [6]) ever see, which is precisely why
    distance-preserving encryption preserves their output. *)

type t = float array array

val of_fun_r :
  ?pool:Parallel.Pool.t ->
  int ->
  (int -> int -> float) ->
  (t, Fault.Error.t list) result
(** [of_fun_r n d] evaluates [d i j] once for each [i < j] and mirrors
    it; the diagonal is [0.0].  This is the one matrix fill of the
    repository: {!Distance.Measure.matrix_r} and the result measure
    build through it.  Row [i] writes cells [j > i] and their mirrors.
    Below 64 rows, or on a 1-lane [pool] (default
    [Parallel.Pool.global ()]), the rows run sequentially; otherwise
    they run through [Parallel.Pool.for_range_r].  [d] must be pure (or
    at least domain-safe), so the result is bit-for-bit identical for
    every pool size.

    Crash-contained: a row whose evaluations raise is reported as
    [Task_failed {label = "dist_matrix.row"; index; cause}] while all
    other rows still compute; [Ok] only when the matrix is complete.
    The request deadline is checked once per row, and an expired one
    abandons the remaining rows.  Carries the
    ["mining.dist_matrix.eval"] injection point keyed by cell
    coordinates.  With telemetry on, the fill is timed into the
    [kitdpe.mining.dist_matrix.build] sketch and a [dist_matrix(n=…)]
    span. *)

val of_fun : ?pool:Parallel.Pool.t -> int -> (int -> int -> float) -> t
(** {!of_fun_r}, raising [Fault.Error.E] of the first row error. *)

val size : t -> int
val get : t -> int -> int -> float

val validate : t -> (unit, string) result
(** Checks squareness, zero diagonal, symmetry and non-negativity,
    scanning only the upper triangle and stopping at the first problem. *)

val max_abs_diff : t -> t -> float
(** Largest entrywise deviation between two matrices of the same size.
    Both arguments are assumed symmetric (as every distance matrix is),
    so only the upper triangle, diagonal included, is scanned.
    @raise Fault.Error.E [(Invariant _)] on a size mismatch. *)

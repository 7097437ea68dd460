(** Symmetric pairwise distance matrices — the only input the distance-based
    mining algorithms ([3] [4] [5] [6]) ever see, which is precisely why
    distance-preserving encryption preserves their output. *)

type t = float array array

val of_fun_r :
  ?pool:Parallel.Pool.t ->
  int ->
  (int -> int -> float) ->
  (t, Fault.Error.t list) result
(** [of_fun_r n d] evaluates [d i j] for [i < j] and mirrors it.  For
    [n >= Parallel.Sym_matrix.par_threshold] the rows are computed
    across [pool] (default [Parallel.Pool.global ()]); [d] must be pure,
    and the result is bit-for-bit identical to the sequential evaluation
    for every pool size.

    Crash-contained: a row whose evaluations raise is reported as
    [Task_failed {label = "dist_matrix.row"; index; cause}] while all
    other rows still compute; [Ok] only when the matrix is complete.
    Carries the ["mining.dist_matrix.eval"] injection point keyed by
    cell coordinates. *)

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

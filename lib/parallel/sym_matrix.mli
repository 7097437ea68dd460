(** Parallel construction of symmetric matrices with a zero diagonal —
    the shape of every pairwise distance matrix in this repository. *)

val par_threshold : int
(** Minimum dimension for which {!build_r} goes parallel; below it the
    n(n-1)/2 evaluations are too cheap to amortize task dispatch. *)

val build_r :
  ?pool:Pool.t ->
  int ->
  (int -> int -> float) ->
  (float array array, (int * Fault.Error.t) list) result
(** [build_r n d] evaluates [d i j] for [i < j] and mirrors it, with
    rows computed across [pool] (default {!Pool.global}[ ()]) when
    [n >= par_threshold] and the pool has more than one lane.  [d] must
    be pure (or at least domain-safe); each cell is evaluated exactly
    once, so the result is bit-for-bit equal for every pool size.

    Crash-contained: a row whose evaluations raise is reported as
    [(row_index, typed_error)] while every other row is still computed.
    [Ok m] when all rows succeed; [Error errs] (sorted by row)
    otherwise.  An expired request deadline abandons the remaining
    rows. *)

(** Agglomerative hierarchical clustering with the complete-link
    criterion: the distance between clusters is the maximum pairwise
    distance, merged bottom-up.  Müllner's generic algorithm with a
    nearest-neighbour cache (arXiv:1109.2378) over a
    {!Dist_matrix.Work} copy of the input: each live cluster keeps its
    nearest cluster of larger id, a merge takes the closest such pair in
    O(r) over the r live clusters and folds the merged rows with
    [Float.max], which is exact.  Only a row whose neighbour was merged
    away is rescanned; every other row compares its one distance to the
    new cluster.  The merges are the all-pairs scan's, tie order
    included.  [kitdpe.mining.hier.cluster_dists] counts every working
    matrix read made to find neighbours: the initial row scans
    (n(n−1)/2), the rescans and one candidate read per other live row
    after each merge; the [Float.max] fold reads are not counted.
    O(n²) reads typically, O(n³) in the worst case, when ties send
    many rows to rescan; n(n−1)/2 working floats; the input is not
    modified.  Defays' O(n²) CLINK is not used: its merges can differ
    from this tie order. *)

type merge = {
  left : int;    (** cluster id merged from (ids >= n are prior merges) *)
  right : int;
  height : float;  (** complete-link distance at the merge *)
}

val dendrogram : Dist_matrix.t -> merge list
(** The [n-1] merges in order.  New clusters get ids [n], [n+1], …
    Ties break deterministically on the smaller pair of ids.  A NaN
    distance never merges.
    @raise Fault.Error.E [(Invariant _)] when every distance between
    the clusters left is NaN; {!cut_k} likewise. *)

val cut_k : int -> Dist_matrix.t -> int array
(** Stop when [k] clusters remain; labels in [0, k) by first-member order.
    The request deadline ({!Parallel.Pool.with_deadline}) is checked
    once per merge.
    @raise Invalid_argument unless [1 <= k <= n].
    @raise Fault.Error.E [(Deadline_exceeded _)] once the deadline has
    passed. *)

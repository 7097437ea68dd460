(** Agglomerative hierarchical clustering with the complete-link criterion
    (Defays [3]): the distance between clusters is the maximum pairwise
    distance, merged bottom-up.  Complete link is the only criterion. *)

type merge = {
  left : int;    (** cluster id merged from (ids >= n are prior merges) *)
  right : int;
  height : float;  (** complete-link distance at the merge *)
}

val dendrogram : Dist_matrix.t -> merge list
(** The [n-1] merges in order.  New clusters get ids [n], [n+1], …
    Ties break deterministically on the smaller pair of ids. *)

val cut_k : int -> Dist_matrix.t -> int array
(** Stop when [k] clusters remain; labels in [0, k) by first-member order.
    The request deadline ({!Parallel.Pool.with_deadline}) is checked
    once per merge.
    @raise Invalid_argument unless [1 <= k <= n].
    @raise Fault.Error.E [(Deadline_exceeded _)] once the deadline has
    passed. *)

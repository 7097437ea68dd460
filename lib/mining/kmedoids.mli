(** K-medoids clustering in the style of Park & Jun's simple-and-fast
    algorithm [5]: deterministic initialization by centrality, then
    alternating assignment and medoid update until fixpoint. *)

type params = {
  k : int;
  max_iter : int;  (** safety bound; convergence usually takes a few steps *)
}

val run : params -> Dist_matrix.t -> int array
(** Labels per point in [0, k).  Deterministic: equal matrices give equal
    labels.  @raise Invalid_argument if [k] exceeds the point count or
    [k <= 0]. *)

val run_pam : params -> Dist_matrix.t -> int array
(** Classic PAM: after the Park–Jun alternation converges, greedily try
    every (medoid, non-medoid) swap and keep any that lowers total cost,
    until no swap improves.  Slower — O(k·(n-k)·n) per sweep — but escapes
    the local optima the fast alternation is prone to (measured in the
    ablation bench).  Deterministic. *)

val medoids : params -> Dist_matrix.t -> int array
(** The final medoid indices, sorted. *)

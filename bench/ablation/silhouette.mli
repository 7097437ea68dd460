(** Silhouette coefficient for evaluating a clustering against the distance
    matrix it was computed from — used by the ablation benchmarks to show
    that cluster {e quality}, not only cluster membership, is identical on
    plaintext and ciphertext. *)

val point_scores : Mining.Dist_matrix.t -> int array -> float array
(** Per-point silhouette values in [-1, 1].  Noise points ([-1]) and
    members of singleton clusters score 0 by convention. *)

val score : Mining.Dist_matrix.t -> int array -> float
(** Mean silhouette over all points; 0 for an empty input. *)

(** Jaccard set distance, the basis of three of the four query-distance
    measures (Definitions 3, 4 and the query-structure distance).

    [d(A, B) = 1 - |A ∩ B| / |A ∪ B|]; the distance of two empty sets is 0. *)

val distance : compare:('a -> 'a -> int) -> 'a list -> 'a list -> float
(** Inputs are treated as sets (deduplicated with [compare]). *)

val similarity : compare:('a -> 'a -> int) -> 'a list -> 'a list -> float
(** [1 - distance]. *)

val distance_sorted_ints : int array -> int array -> float
(** {!distance} on sorted duplicate-free int arrays, by merge-count
    without allocation.  Bit-identical to [distance] on the
    pre-interning sets: the cardinalities are integers, so the float
    division is the same in both paths.  Used by the {!Features}
    evaluators. *)

(** Clause-based query distance in the style of Aligon et al. [17]
    ("Mining preferences from OLAP query logs…" and the companion
    similarity measures for OLAP sessions) — the measure family behind the
    paper's §V pointer to OLAP personalization.

    A query is summarized by three component sets — the {e projection} set
    (selected attributes / aggregates), the {e group-by} set, and the
    {e selection} set (predicate atoms with constants dropped) — and the
    distance is a weighted average of the three Jaccard distances.

    Every component is constant-free and name-based, so the measure is
    preserved by the same scheme as the query-structure distance (DET
    names, PROB constants); this is verified in the test suite. *)

val w_projection : float
val w_group_by : float
val w_selection : float
(** The component weights: Aligon et al.'s emphasis on the group-by set,
    0.35 / 0.50 / 0.15. *)

val projection_set : Sqlir.Ast.query -> string list
val group_by_set : Sqlir.Ast.query -> string list
val selection_set : Sqlir.Ast.query -> string list

val combine : projection:float -> group_by:float -> selection:float -> float
(** The weighted average of three component distances, divided by the
    weight sum: the measure {!Features.eval} evaluates from the
    Jaccard distances of the three interned component sets. *)

(** Query-structure distance (§IV-B2): Jaccard distance of the SnipSuggest
    feature sets ({!Feature}) of the two queries. *)

val distance : Sqlir.Ast.query -> Sqlir.Ast.query -> float

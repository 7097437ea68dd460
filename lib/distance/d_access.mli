(** Query-access-area distance (Definition 5).

    [d(Q1,Q2) = (1/|Attr|) Σ_A δ_A(Q1,Q2)] over the attributes accessed by
    either query, with [δ_A = 0] when the access areas coincide, [x] when
    they merely overlap, and [1] otherwise ({!Access_area.delta}).
    {!Features.eval} evaluates it from per-attribute code tables; the sum
    is that of the δ in ascending value order, so it does not depend on
    how the attribute names sort (DESIGN.md §10).  The default
    partial-overlap weight is the paper's [x = 0.5]. *)

val default_x : float

(** Query-access-area distance (Definition 5).

    [d(Q1,Q2) = (1/|Attr|) Σ_A δ_A(Q1,Q2)] over the attributes accessed by
    either query, with [δ_A = 0] when the access areas coincide, [x] when
    they merely overlap, and [1] otherwise.  The default partial-overlap
    weight is the paper's [x = 0.5]. *)

val default_x : float

val distance_of_areas :
  x:float
  -> (string * Access_area.t) list
  -> (string * Access_area.t) list
  -> float
(** The distance of two queries given their [Access_area.of_query]
    maps, which {!Features} computes once per query.
    @raise Invalid_argument unless [0 < x < 1]. *)

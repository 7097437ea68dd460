(** The space the indexes are built over: a {!Distance.Features} table
    plus the measure interpretation.

    One index per measure family ({!Vp_tree.build} picks it):

    - the Jaccard-family measures (token / structure / clause) go to
      the prefix filter ({!Prefix}), which generates candidates from
      the interned sets ({!set}) and needs no triangle inequality;
    - edit goes to the BK-tree, which routes on the {e raw integer}
      Levenshtein distance ({!int_dist}, a metric by construction), so
      exactness never rests on the normalized edit distance satisfying
      the triangle inequality.

    The query predicate ({!within}) is the brute-force scan's decision
    [measure(i,j) <= eps] for every measure; both indexes confirm every
    candidate with it.

    The access-area and result measures have neither a set filter nor a
    metric to route on and are deliberately unsupported
    ({!of_measure} = [None]); callers fall back to the matrix engine
    there. *)

type kind = Token | Structure | Edit | Clause

type t

val kind_of_measure : Distance.Measure.t -> kind option
val supported : Distance.Measure.t -> bool

val of_measure : Distance.Measure.t -> Distance.Features.t -> t option
(** [None] for the access-area and result measures. *)

val of_kind : kind -> Distance.Features.t -> t

val size : t -> int

val is_int_metric : t -> bool
(** True iff the space is edit — the precondition of the BK-tree. *)

val within : t -> eps:float -> int -> int -> bool
(** [within t ~eps i j] is [measure(i,j) <= eps] with the measure value
    bit-identical to the matrix entry — the decision the brute-force
    neighbor scan makes, for every measure.  Every call is a "probe" in
    the cost model. *)

val int_dist : t -> int -> int -> int
(** Raw integer Levenshtein distance, the BK-tree routing metric.
    @raise Invalid_argument unless {!is_int_metric}. *)

val len : t -> int -> int
(** Edit-token length of point [i] (0 for the set measures): the
    normalizer of the edit measure is [max (len i) (len j)]. *)

val set : t -> int -> int array
(** Point [i]'s sorted, duplicate-free interned set on a Jaccard-family
    space: the token set, the structure feature set, or the clause
    projection set.  Not to be mutated.
    @raise Invalid_argument on an edit space. *)

val set_eps : t -> eps:float -> float
(** The set radius of a query radius on a Jaccard-family space: in the
    reals, a pair with [measure <= eps] has Jaccard distance at most
    [set_eps t ~eps] between its {!set}s.  That is [eps] for token and
    structure, and [eps * W / w_projection] for clause under
    [D_clause.default_weights] (summing to [W]), because the projection
    term of the weighted average is at most the whole. *)

val build : name:string -> t -> (int array -> 'a) -> 'a
(** [build ~name t f] is the one index build: it passes the
    ["index.build"] injection point once per point id (keyed by the id;
    an armed trigger raises [Fault.Error.E (Injected _)] before any
    index work), then runs [f] over all ids [0 .. size t - 1],
    ascending.  With telemetry on, the build is counted in
    [kitdpe.index.builds], timed into the [kitdpe.index.build] sketch
    and recorded as a [<name>.build(n=…)] span. *)

type stats = { probes : int; prunes : int }

val count_query : probes:int -> prunes:int -> stats
(** Account one range query in [kitdpe.index.queries],
    [kitdpe.index.probes] ({!within} / {!int_dist} evaluations) and
    [kitdpe.index.prunes] (BK subtrees or prefix candidates discarded
    without one) when telemetry is on; returns the query's counts. *)

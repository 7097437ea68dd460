(** The space the indexes are built over: a keyed
    {!Distance.Features.table} plus an optional class map.  The
    measure's key ({!Distance.Measure.key_of}) picks what the space
    holds, and the table's key picks the index ({!Vp_tree.build}):

    - the Jaccard-family keys (token, structure and clause sets) go to
      the prefix filter ({!Prefix}), which generates candidates from
      the interned sets ({!set}) and needs no triangle inequality;
    - the edit sequences go to the BK-tree, which routes on the
      {e raw integer} Levenshtein distance ({!int_dist}, a metric by
      construction), so exactness never rests on the normalized edit
      distance satisfying the triangle inequality.

    The query predicate ({!within}) is the brute-force scan's decision
    [measure(i,j) <= eps] for every measure; both indexes confirm every
    candidate with it.

    The access-area and result measures have neither a set filter nor a
    metric to route on and are deliberately unsupported
    ({!of_measure} = [None]); callers fall back to the matrix engine
    there. *)

type t

val supported : Distance.Measure.t -> bool

val of_measure : Distance.Measure.t -> Distance.Features.t -> t option
(** The mining engine's space: the measure's part of every query of the
    printed log ({!Distance.Features.table_r}) plus its class map
    ({!Distance.Features.classes}), so that {!Vp_tree.build} indexes one
    representative per class.  [None] for the access-area and result
    measures.
    @raise Fault.Error.E of the first part-build error. *)

val flat : Distance.Measure.t -> Distance.Features.t -> t
(** The measure's part of every query, each point on its own: no class
    map.
    @raise Invalid_argument unless {!supported}.
    @raise Fault.Error.E of the first part-build error. *)

val size : t -> int

val classes : t -> Distance.Features.classes option
(** The class map of an {!of_measure} space; [None] on a {!flat}
    space. *)

val representatives : t -> Distance.Features.classes -> t
(** [representatives t c] is the space of the class representatives of
    [t]: its point [a] is query [c.reps.(a)], with no class map.  Its
    {!build} still passes the fault point once per query of [t]. *)

val is_int_metric : t -> bool
(** True iff the space is edit — the precondition of the BK-tree. *)

val within : t -> eps:float -> int -> int -> bool
(** [within t ~eps i j] is [measure(i,j) <= eps] with the measure value
    bit-identical to the matrix entry — the decision the brute-force
    neighbor scan makes, for every measure.  Every call is a "probe" in
    the cost model.  Staged: [within t ~eps i] builds [i]'s edit
    pattern once, for every [j]. *)

val int_dist : t -> int -> int -> int
(** Raw integer Levenshtein distance, the BK-tree routing metric
    ({!Distance.Features.edit_distance_int}).  Staged: [int_dist t i]
    builds [i]'s pattern once, for every [j].
    @raise Fault.Error.E [(Invariant _)] unless {!is_int_metric}. *)

val len : t -> int -> int
(** Edit-token length of point [i]: the normalizer of the edit measure
    is [max (len i) (len j)].
    @raise Fault.Error.E [(Invariant _)] unless {!is_int_metric}. *)

val set : t -> int -> int array
(** Point [i]'s sorted, duplicate-free interned set on a Jaccard-family
    space: the token set, the structure feature set, or the clause
    projection set ({!Distance.Features.set}).  Not to be mutated.
    @raise Fault.Error.E [(Invariant _)] on an edit space. *)

val set_eps : t -> eps:float -> float
(** The set radius of a query radius on a Jaccard-family space: in the
    reals, a pair with [measure <= eps] has Jaccard distance at most
    [set_eps t ~eps] between its {!set}s.  That is [eps] for token and
    structure, and [eps * W / w_projection] for clause under
    the [D_clause] weights (summing to [W]), because the projection
    term of the weighted average is at most the whole. *)

val build : name:string -> t -> (int array -> 'a) -> 'a
(** [build ~name t f] is the one index build: it passes the
    ["index.build"] injection point once per query of the log the space
    was made from, keyed by the query index, so a space of
    {!representatives} fails on the same keys as the full one (an armed
    trigger raises [Fault.Error.E (Injected _)] before any index work),
    then runs [f] over all ids [0 .. size t - 1],
    ascending.  With telemetry on, the build is counted in
    [kitdpe.index.builds], timed into the [kitdpe.index.build] sketch
    and recorded as a [<name>.build(n=…)] span. *)

type stats = { probes : int; prunes : int }

val count_query : probes:int -> prunes:int -> stats
(** Account one range query in [kitdpe.index.queries],
    [kitdpe.index.probes] ({!within} / {!int_dist} evaluations) and
    [kitdpe.index.prunes] (BK subtrees or prefix candidates discarded
    without one) when telemetry is on; returns the query's counts. *)

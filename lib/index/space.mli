(** The metric space the index trees are built over: a
    {!Distance.Features} table plus the measure interpretation.

    One tree per metric ({!Vp_tree.build} picks it):

    - the Jaccard-family measures (token / structure / clause, all
      proven metrics) go to the VP-tree, which routes and splits on the
      measure value itself ({!dist});
    - edit goes to the BK-tree, which routes on the {e raw integer}
      Levenshtein distance ({!int_dist}, a metric by construction), so
      exactness never rests on the normalized edit distance satisfying
      the triangle inequality.

    The query predicate ({!within}) is the brute-force scan's decision
    [measure(i,j) <= eps] for every measure.

    The access-area and result measures carry no triangle-inequality
    argument and are deliberately unsupported ({!of_measure} = [None]);
    callers fall back to the matrix engine there. *)

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

val dist : t -> int -> int -> float
(** The measure value, bit-identical to the matrix entry.  The VP-tree
    routing metric on the Jaccard family; every call is a "probe" in
    the cost model. *)

val within : t -> eps:float -> int -> int -> bool
(** [within t ~eps i j = (dist t i j <= eps)] — the decision the
    brute-force neighbor scan makes, for every measure. *)

val int_dist : t -> int -> int -> int
(** Raw integer Levenshtein distance, the BK-tree routing metric.
    @raise Invalid_argument unless {!is_int_metric}. *)

val len : t -> int -> int
(** Edit-token length of point [i] (0 for the set measures): the
    normalizer of the edit measure is [max (len i) (len j)]. *)

val build : name:string -> t -> (int array -> 'a) -> 'a
(** [build ~name t f] is the one tree build: it passes the
    ["index.build"] injection point once per point id (keyed by the id;
    an armed trigger raises [Fault.Error.E (Injected _)] before any tree
    work), then runs [f] over all ids [0 .. size t - 1], ascending.
    With telemetry on, the build is counted in [kitdpe.index.builds],
    timed into the [kitdpe.index.build] sketch and recorded as a
    [<name>.build(n=…)] span. *)

val count_query : probes:int -> prunes:int -> unit
(** Account one range query in [kitdpe.index.queries],
    [kitdpe.index.probes] (distance evaluations) and
    [kitdpe.index.prunes] (subtrees discarded) when telemetry is on. *)

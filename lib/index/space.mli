(** The metric space the index trees are built over: a
    {!Distance.Features} table plus the measure interpretation.

    Two metrics per space:

    - the {e tree metric} ({!tree_dist}) the trees route and split on —
      the Jaccard-family measure value itself (token / structure /
      clause, all proven metrics), or the {e raw integer} Levenshtein
      distance for edit (a metric by construction, so exactness never
      rests on the normalized edit distance satisfying the triangle
      inequality);
    - the {e query predicate} ({!within}), bit-identical to the
      brute-force scan's decision [measure(i,j) <= eps].

    The access-area and result measures carry no triangle-inequality
    argument and are deliberately unsupported ({!of_measure} = [None]);
    callers fall back to the oracle or matrix engines there. *)

type kind = Token | Structure | Edit | Clause

type t

val kind_of_measure : Distance.Measure.t -> kind option
val supported : Distance.Measure.t -> bool

val of_measure : Distance.Measure.t -> Distance.Features.t -> t option
(** [None] for the access-area and result measures. *)

val of_kind : kind -> Distance.Features.t -> t

val size : t -> int
val kind : t -> kind
val features : t -> Distance.Features.t

val is_int_metric : t -> bool
(** True iff the tree metric is integer-valued (edit) — the precondition
    of the BK-tree. *)

val tree_dist : t -> int -> int -> float
(** The routing metric (see above).  Exact; every call is a "probe" in
    the cost model. *)

val int_dist : t -> int -> int -> int
(** Raw integer Levenshtein distance.
    @raise Invalid_argument unless {!is_int_metric}. *)

val len : t -> int -> int
(** Edit-token length of point [i] (0 for the set measures). *)

val max_len : t -> int

val within : t -> eps:float -> int -> int -> bool
(** Exact eps-membership — the same decision the brute-force neighbor
    scan makes, for every measure. *)

val member_of_tree_dist : t -> eps:float -> qlen:int -> int -> float -> bool
(** [member_of_tree_dist t ~eps ~qlen j d] decides eps-membership of
    point [j] from its already-computed tree distance [d] to the query
    (whose edit length is [qlen]) without re-evaluating the pair.
    Bit-identical to {!within}. *)

val radius : t -> eps:float -> qlen:int -> sublen:int -> float
(** Sound pruning radius in the tree metric for a subtree whose members'
    edit lengths are all [<= sublen]: if a lower bound on the tree
    distance from the query to every member of the subtree exceeds this
    radius, no member can satisfy {!within}.  Includes the float slack
    that makes the bound safe against rounding (0.5 on integer edit
    distances, 1e-9 on Jaccard values). *)

val build_point : int -> unit
(** Pass the ["index.build"] injection point keyed by a point id (used
    by both tree builders; raises when an armed trigger fires). *)

(**/**)

(* shared [kitdpe.index.*] metrics, updated by the tree implementations *)
val m_builds : Obs.Metric.counter
val m_build : Obs.Sketch.t
val m_queries : Obs.Metric.counter
val m_probes : Obs.Metric.counter
val m_prunes : Obs.Metric.counter

(** The one index entry point: a router over the two exact indexes.

    {!build} picks the index by the space: an edit space
    ({!Space.is_int_metric}) gets the {!Bk_tree}, which routes on the
    integer Levenshtein metric; the Jaccard family (token, structure,
    clause) gets the {!Prefix} filter.  {!range} and {!range_stats}
    answer for whichever was built.

    The module keeps the name of the VP-tree it once held only because
    the serve benchmark harness calls [Vp_tree.build ~seed] and
    [Vp_tree.range] by that name; a rename waits for the next benchmark
    change.

    {b Faults.}  Both builds go through {!Space.build}, which passes the
    ["index.build"] point once per point id before any index work.
    There is no partial index: one over a subset would leave the failed
    points out of every range answer. *)

type t

val build : ?pool:Parallel.Pool.t -> seed:string -> Space.t -> t
(** Index every point of the space: a BK-tree on an edit space (its
    pivots drawn from [seed], its distance batches run on [pool]), else
    a prefix filter, which is sequential and uses neither.
    @raise Fault.Error.E [(Injected _)] when an armed ["index.build"]
    trigger fires. *)

val range : t -> eps:float -> int -> int list
(** [range t ~eps q] is the exact eps-neighborhood of point [q]
    (ascending, [q] itself excluded) — the same set, in the same order,
    as the brute-force scan over {!Space.within}. *)

type stats = Space.stats = { probes : int; prunes : int }

val range_stats : t -> eps:float -> int -> int list * stats
(** {!range} plus the query's probe ({!Space.within} or
    {!Space.int_dist} evaluations) and prune counts (BK subtrees, or
    prefix candidates, discarded without one); also accumulated into
    [kitdpe.index.probes] / [kitdpe.index.prunes] when telemetry is
    on. *)

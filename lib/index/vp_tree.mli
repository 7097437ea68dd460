(** The one index entry point, and the vantage-point tree: exact
    eps-range queries in ~O(log n) probes per query (near-duplicate
    radii).

    {b One tree per metric.}  {!build} picks the tree by the space:
    the Jaccard family (token, structure, clause) gets the VP-tree
    below; an edit space ({!Space.is_int_metric}) gets the
    {!Bk_tree}, which routes on the integer Levenshtein metric.
    {!range}, {!range_stats} and {!fingerprint} then answer for
    whichever tree was built.  The module name predates the routing;
    renaming it waits for the next benchmark change, whose harness
    calls it by this name.

    {b Determinism.}  The VP-tree is a pure function of (space, seed):
    each node's vantage is drawn from a DRBG keyed by [seed] and the
    node's tree path, and the median split uses a total monomorphic
    order — so the structure is bit-identical for every pool size ({!fingerprint} is compared across pools in the
    chaos suite).  The pool only parallelizes the vantage-distance
    batches and the subtree builds.

    {b Exactness.}  A subtree is discarded only when the triangle
    lower bound [|d(q,v) - mu|] exceeds [eps] plus a 1e-9 rounding
    slack; surviving candidates are confirmed by the exact predicate.
    Every query returns {e exactly} the brute-force neighbor set
    (property-tested per measure and pool size).

    {b Faults.}  {!build} goes through {!Space.build}, which passes the
    ["index.build"] point once per point id before any tree work.  There
    is no partial tree: a tree over a subset would leave the failed
    points out of every range answer. *)

type t

val build : ?pool:Parallel.Pool.t -> seed:string -> Space.t -> t
(** Index every point of the space: a VP-tree, or a BK-tree on an edit
    space.
    @raise Fault.Error.E [(Injected _)] when an armed ["index.build"]
    trigger fires. *)

val range : t -> eps:float -> int -> int list
(** [range t ~eps q] is the exact eps-neighborhood of point [q]
    (ascending, [q] itself excluded) — the same set, in the same order,
    as the brute-force scan over {!Space.within}. *)

type stats = Bk_tree.stats = { probes : int; prunes : int }

val range_stats : t -> eps:float -> int -> int list * stats
(** {!range} plus the query's probe (distance evaluations) and prune
    (subtrees discarded) counts; also accumulated into
    [kitdpe.index.probes] / [kitdpe.index.prunes] when telemetry is
    on. *)

val fingerprint : t -> string
(** Deterministic structural rendering — equal fingerprints mean
    bit-identical trees.  A VP-tree renders its vantages, medians with
    [%.17g] and leaf contents; a BK-tree renders as
    {!Bk_tree.fingerprint}. *)

(** Vantage-point tree: exact eps-range queries over any {!Space}
    metric in ~O(log n) probes per query (near-duplicate radii).

    {b Determinism.}  The tree is a pure function of (space, seed):
    each node's vantage is drawn from a DRBG keyed by [seed] and the
    node's tree path, and the median split uses a total monomorphic
    order — so the structure is bit-identical for every pool size ({!fingerprint} is compared across pools in the
    chaos suite).  The pool only parallelizes the vantage-distance
    batches and the subtree builds.

    {b Exactness.}  A subtree is discarded only when the triangle
    lower bound [|d(q,v) - mu|] exceeds {!Space.radius}; surviving
    candidates are confirmed by the exact predicate.  Every query
    returns {e exactly} the brute-force neighbor set (property-tested
    per measure and pool size).

    {b Faults.}  {!build} goes through {!Space.build}, which passes the
    ["index.build"] point once per point id before any tree work.  There
    is no partial tree: a tree over a subset would leave the failed
    points out of every range answer. *)

type t

val build : ?pool:Parallel.Pool.t -> seed:string -> Space.t -> t
(** Index every point of the space.
    @raise Fault.Error.E [(Injected _)] when an armed ["index.build"]
    trigger fires. *)

val range : t -> eps:float -> int -> int list
(** [range t ~eps q] is the exact eps-neighborhood of point [q]
    (ascending, [q] itself excluded) — the same set, in the same order,
    as the brute-force scan over {!Space.within}. *)

type stats = { probes : int; prunes : int }

val range_stats : t -> eps:float -> int -> int list * stats
(** {!range} plus the query's probe (distance evaluations) and prune
    (subtrees discarded) counts; also accumulated into
    [kitdpe.index.probes] / [kitdpe.index.prunes] when telemetry is
    on. *)

val fingerprint : t -> string
(** Deterministic structural rendering (vantages, medians with [%.17g],
    per-subtree length bounds, leaf contents) — equal fingerprints mean
    bit-identical trees. *)

(** Burkhard–Keller tree: exact eps-range queries over the {e integer}
    edit metric ({!Space.is_int_metric} spaces only).  The index for
    edit: {!Vp_tree.build} hands every edit space to {!build}.

    Children are bucketed by exact pivot distance; a query at integer
    distance [d] from a pivot descends only into edges [w] with
    [|d - w| <= eps * max(len q, maxlen) + 0.5], where [maxlen] is the
    longest member of the child subtree (triangle inequality on the raw
    Levenshtein metric).  Membership is confirmed with the exact
    normalized predicate, so results equal the brute-force neighbor
    set.

    Determinism: each pivot is drawn from a DRBG keyed by the build seed
    and the node's tree path, so the structure is bit-identical for
    every pool size ({!fingerprint} is compared across pools in the
    chaos suite); the pool only runs the distance batches and the
    subtree builds.  One build through {!Space.build} (the
    ["index.build"] gate, no partial tree), and [kitdpe.index.*]
    probe/prune counters. *)

type t

val build : ?pool:Parallel.Pool.t -> seed:string -> Space.t -> t
(** Index every point of the space.
    @raise Invalid_argument unless [Space.is_int_metric space].
    @raise Fault.Error.E [(Injected _)] when an armed ["index.build"]
    trigger fires. *)

val range : t -> eps:float -> int -> int list
(** Exact eps-neighborhood of point [q] (ascending, [q] excluded) —
    identical to the brute-force scan over {!Space.within}. *)

type stats = Space.stats = { probes : int; prunes : int }

val range_stats : t -> eps:float -> int -> int list * stats

val fingerprint : t -> string
(** Deterministic structural rendering (pivots, edge distances,
    per-subtree length bounds); equal fingerprints mean bit-identical
    trees. *)

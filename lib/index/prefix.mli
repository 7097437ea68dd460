(** Prefix-filter index: exact eps-range queries over a Jaccard-family
    space (token, structure, clause), the candidate filter of
    set-similarity joins (AllPairs: Bayardo, Ma and Srikant, WWW 2007).
    {!Vp_tree.build} hands every non-edit space to {!build}.

    {b Build.}  Every token of the interned sets ({!Space.set}) is
    ranked rarest-first by the number of points holding it (ties by
    token id); each point's set is stored in rank order, and each rank
    keeps an ascending posting list of the points holding it.  The
    build is sequential, draws no randomness and does not depend on
    eps.

    {b Query.}  With [t = 1 - Space.set_eps ~eps - 1e-9], a point [y]
    within [eps] of the query set [x] has Jaccard similarity at least
    [t], hence [|x ∩ y| >= ⌈t·|x|⌉] and [t·|x| <= |y| <= |x|/t].  It
    therefore holds one of the first [|x| - ⌈t·|x|⌉ + 1] ranks of [x]
    (the prefix).  Candidates are the union of the prefix postings,
    minus those outside the size bounds; each is confirmed with
    {!Space.within}.  The 1e-9 slack only widens the filter, covering
    the rounding of the computed distances.  An empty query set can
    only be within [eps < 1] of empty sets.  When [t <= 0] (or eps is
    nan) no overlap is required and every point is a candidate.

    {b Accounting.}  A probe is one {!Space.within} evaluation; a prune
    is a prefix candidate the size bounds discard. *)

type t

val build : Space.t -> t
(** Index every point of the space, through {!Space.build} (the
    ["index.build"] gate, no partial index).
    @raise Invalid_argument on an edit space.
    @raise Fault.Error.E [(Injected _)] when an armed ["index.build"]
    trigger fires. *)

val range_stats : t -> eps:float -> int -> int list * Space.stats
(** The exact eps-neighborhood of point [q] (ascending, [q] excluded) —
    the brute-force scan's answer over {!Space.within} — and the
    query's probe and prune counts. *)

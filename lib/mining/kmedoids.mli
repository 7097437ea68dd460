(** K-medoids clustering in the style of Park & Jun's simple-and-fast
    algorithm [5]: deterministic initialization by centrality, then
    alternating assignment and medoid update until fixpoint. *)

type params = {
  k : int;
  max_iter : int;  (** safety bound; convergence usually takes a few steps *)
}

val run : params -> Dist_matrix.t -> int array
(** Labels per point in [0, k).  Deterministic: equal matrices give equal
    labels.  @raise Invalid_argument if [k] exceeds the point count or
    [k <= 0]. *)

val run_pam : params -> Dist_matrix.t -> int array
(** Classic PAM: after the Park–Jun alternation converges, greedily try
    every (medoid, non-medoid) swap and keep any that lowers total cost,
    until no swap improves.  Slower — O(k·(n-k)·n) per sweep — but escapes
    the local optima the fast alternation is prone to (measured in the
    ablation bench).  Deterministic. *)

type clarans_params = {
  c_k : int;            (** number of medoids *)
  num_local : int;      (** independent restarts; best final cost wins *)
  max_neighbor : int;   (** sampled swaps examined before a node counts
                            as a local optimum *)
}

val run_clarans_full :
  rand:(int -> int) ->
  clarans_params ->
  n:int ->
  d:(int -> int -> float) ->
  int array * int array * float
(** CLARANS (Ng & Han): randomized-sampled PAM over the swap graph,
    needing only a distance function — the k-medoids engine for logs too
    large to materialize the O(n²) matrix.  Returns
    [(medoids, labels, cost)].

    {b Bounded error.}  Each restart ends at a node none of whose
    [max_neighbor] sampled swaps improves cost; each sample is uniform
    over the k·(n-k) PAM neighbors, so a swap improving by the largest
    margin is missed by one restart with probability
    [(1 - 1/(k(n-k)))^max_neighbor], and by all [num_local] restarts
    exponentially rarely.  With [max_neighbor] at the classic
    [max(250, 1.25% of k(n-k))] the returned cost is within a few
    percent of full PAM (property-tested at [<= 1.10x] on small n,
    where PAM is feasible to run exactly).

    {b Determinism.}  Randomness is consumed only through [rand]
    (callers pass a seeded [Crypto.Drbg]-backed function), in a fixed
    order — the result is a pure function of [(rand, params, d)].

    [rand m] must return a uniform draw in [\[0, m)].
    @raise Invalid_argument if [c_k] is out of range or the sampling
    parameters are non-positive. *)

val run_clarans :
  rand:(int -> int) ->
  clarans_params ->
  n:int ->
  d:(int -> int -> float) ->
  int array
(** Labels only; ties assign to the lowest medoid slot exactly like the
    matrix-based {!run}. *)

val medoids : params -> Dist_matrix.t -> int array
(** The final medoid indices, sorted. *)

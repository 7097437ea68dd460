(** The one mining planner, shared by [dpe_cli mine] and [dpe_serve]'s
    [mine] op (DESIGN.md §15).  {!plan} is pure; {!run} is the only
    wiring from its choice to a labelling.  "Indexable" means
    {!Index.Space.supported} (token, structure, edit, clause).

    {v
    algo      measure     engine requested       engine planned
    dbscan    indexable   oracle                 Oracle
    dbscan    indexable   index, or auto n>=512  Index
    kmedoids  indexable   index                  Clarans (approximate)
    any       any         matrix, or auto        Matrix
    any       any         oracle, index          Matrix + fallback reason
    v}

    [Oracle] and [Index] label bit-identically to [Matrix]; [Clarans]
    may not, so [auto] never picks it. *)

type algo = Dbscan | Kmedoids | Outliers | Clink

type engine =
  | Matrix  (** dense pairwise matrix ({!Distance.Measure.matrix_r}) *)
  | Oracle  (** DBSCAN over exact eps-predicate scans, no matrix *)
  | Index  (** DBSCAN over VP-tree range queries, no matrix *)
  | Clarans  (** k-medoids by CLARANS over the feature table; approximate *)

type t = {
  measure : Distance.Measure.t;
  algo : algo;
  engine : engine;
  fallback : string option;  (** why a requested engine is not the one used *)
}

val engine_name : engine -> string
(** ["matrix"], ["oracle"], ["index"] or ["clarans"]. *)

val plan :
  measure:Distance.Measure.t -> algo:string -> engine:string -> n:int
  -> (t, Fault.Error.t) result
(** [algo] is [dbscan], [kmedoids], [outliers] or [clink]; [engine] is
    [auto], [matrix], [oracle] or [index]; anything else is
    [Error (Protocol _)]. *)

type params = {
  k : int;  (** cluster count (kmedoids, clink) *)
  eps : float;  (** DBSCAN radius / outlier distance threshold *)
  seed : string;  (** VP-tree vantage and CLARANS draw seed *)
}

val on_matrix : params -> t -> Mining.Dist_matrix.t -> int array
(** The planned algorithm over a dense matrix: DBSCAN with
    [min_pts = 3], k-medoids with [max_iter = 50], outliers with
    [p = 0.95] (1 = outlier), complete link cut at [k]. *)

val run :
  ?ctx:Distance.Measure.ctx -> params -> t -> Sqlir.Ast.query list
  -> t * (int array, Fault.Error.t list) result
(** Execute the plan; returns the plan that actually ran and its
    labels.  A neighbor engine that fails at runtime (feature build,
    index build, an armed fault) falls back to [Matrix] with the typed
    error as the [fallback] reason.  [Matrix] builds
    {!Distance.Measure.matrix_r} under [ctx] (default
    {!Distance.Measure.default_ctx}); its errors are the [Error] case,
    for the caller to degrade or report. *)

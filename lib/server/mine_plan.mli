(** The one mining planner, shared by [dpe_cli mine] and [dpe_serve]'s
    [mine] op (DESIGN.md §15).  {!plan} is pure; {!run} is the only
    wiring from its choice to a labelling.  "Indexable" means
    {!Index.Space.supported} (token, structure, edit, clause).

    {v
    algo      measure     engine requested       engine planned
    dbscan    indexable   index, or auto n>=512  Index
    any       any         matrix, or auto        Matrix
    any       any         index                  Matrix + fallback reason
    v}

    No plan builds a matrix over more than {!max_matrix_n} queries.
    Where the table says [Matrix] and [n > max_matrix_n], dbscan on an
    indexable measure plans [Index] with a fallback reason naming the
    bound, and every other request is [Error (Protocol _)].

    Both engines are exact: [Index] labels bit-identically to
    [Matrix]. *)

type algo = Dbscan | Kmedoids | Outliers | Clink

type engine =
  | Matrix  (** dense pairwise matrix ({!Distance.Measure.matrix_r}) *)
  | Index  (** DBSCAN over index range queries, no matrix: the prefix
               filter; the BK-tree for edit *)

type t = {
  measure : Distance.Measure.t;
  algo : algo;
  engine : engine;
  fallback : string option;  (** why a requested engine is not the one used *)
}

val max_matrix_n : int
(** 4096: the largest log a request may mine over a dense matrix
    (4096·4095/2 packed floats, 64 MiB). *)

val engine_name : engine -> string
(** ["matrix"] or ["index"]. *)

val k_fits : algo -> k:int -> n:int -> bool
(** [kmedoids] and [clink] need [1 <= k <= n] on [n] queries; [dbscan]
    and [outliers] ignore [k]. *)

val plan :
  measure:Distance.Measure.t -> algo:string -> engine:string -> n:int
  -> k:int -> (t, Fault.Error.t) result
(** [algo] is [dbscan], [kmedoids], [outliers] or [clink]; [engine] is
    [auto], [matrix] or [index]; anything else, a [k] that fails
    {!k_fits} on [n], or a matrix over [n > max_matrix_n] queries that
    the index cannot replace, is [Error (Protocol _)]. *)

type params = {
  k : int;  (** cluster count (kmedoids, clink) *)
  eps : float;  (** DBSCAN radius / outlier distance threshold *)
  seed : string;  (** BK-tree pivot seed (edit) *)
}

val run :
  ?ctx:Distance.Measure.ctx -> params -> t -> Sqlir.Ast.query list
  -> t * (int array, Fault.Error.t list) result
(** Execute the plan; returns the plan that actually ran and its
    labels.  The algorithms: DBSCAN with [min_pts = 3], k-medoids with
    [max_iter = 50], outliers with [p = 0.95] (1 = outlier), complete
    link cut at [k].  An [Index] run that fails (feature build, index
    build, an armed fault) falls back to [Matrix] with the typed error
    as the [fallback] reason, unless the log has more than
    {!max_matrix_n} queries: then the index error is the answer.
    [Matrix] builds
    {!Distance.Measure.matrix_r} under [ctx] (default
    {!Distance.Measure.default_ctx}); its errors, and those of the
    algorithm (an expired request deadline), are the [Error] case, for
    the caller to degrade or report. *)

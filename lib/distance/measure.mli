(** The four SQL query-distance measures of Table I, behind one interface.

    Mining algorithms ({!Mining}) and the experiment harness consume
    distances through this module so that every experiment is parametric in
    the measure. *)

type t =
  | Token
  | Structure
  | Result
  | Access
  | Edit
      (** extension: normalized token-level Levenshtein distance (the
          paper's Example 2 mentions Levenshtein but does not develop it);
          preserved by the same scheme as {!Token} *)
  | Clause
      (** extension: Aligon-style clause-based OLAP distance [17]
          ({!D_clause}); preserved by the same scheme as {!Structure} *)

val all : t list
(** The paper's four measures (Table I), without {!Edit}. *)

val extended : t list
(** All five, including the {!Edit} extension. *)
val to_string : t -> string
val of_string : string -> t option

type ctx = {
  db : Minidb.Database.t option;  (** required by {!Result} *)
  x : float;                      (** partial-overlap weight of {!Access} *)
}

val default_ctx : ctx
val ctx_with_db : Minidb.Database.t -> ctx

val needs_db_content : t -> bool
(** Table I column "Shared information: DB-Content". *)

val needs_domains : t -> bool
(** Table I column "Shared information: Domains". *)

val key_of : t -> Features.key option
(** The part of a query's record the measure reads (its characteristic
    c(Q), Definition 2): the one place where a measure decides its
    {!Features.key}.  [None] for {!Result}, which reads database
    content instead. *)

val compute : ctx -> t -> Sqlir.Ast.query -> Sqlir.Ast.query -> float
(** The distance of one pair, counted once in
    [kitdpe.distance.measure.evals].  Every measure but {!Result} is
    {!Features.distance}: two records holding only the measure's part,
    built in the calling thread; {!Result} runs both queries on
    [ctx.db] ({!D_result.distance}).  Prefer {!matrix_r} for many pairs.
    @raise Fault.Error.E [(Invariant _)] if {!Result} is requested
    without a database. *)

val pair_of_features : ctx -> t -> Features.table -> int -> int -> float
(** [pair_of_features ctx m feats i j] is [compute ctx m] on queries
    [i] and [j] of the table, bit-identically, without touching query
    text.  Staged like {!Features.eval}: apply it to [i] once per row.
    @raise Fault.Error.E [(Invariant _)] for {!Result}, which has no
    feature-table form, and on a table built for another key than
    {!key_of}[ m]. *)

val matrix_r :
  ?pool:Parallel.Pool.t -> ctx -> t -> Sqlir.Ast.query list
  -> (Mining.Dist_matrix.t, Fault.Error.t list) result
(** The full symmetric pairwise matrix.  Prefer this over calling
    {!compute} per pair: per-query artifacts (printed form, token
    sequences, feature / clause sets, access areas) are precomputed once
    per distinct query into a {!Features} table holding the measure's
    part ({!key_of}) only, and pairs are evaluated from the table,
    bit-identically to {!compute} (the result measure likewise evaluates
    each query once).

    Each distance is evaluated once per pair of {!Features.classes}:
    with [d] classes, [m] of them with two or more members, the fill makes
    [d (d - 1) / 2] evaluations between representatives plus one
    [d(rep, rep)] per class of [m], counted in
    [kitdpe.distance.measure.evals].  The [n]-query matrix is then
    filled by {!Mining.Dist_matrix.of_fun_r} across [pool] (default
    [Parallel.Pool.global ()]) with a lookup into those values, so the
    matrix, its per-cell injection point and its row batch are those of
    a per-pair fill, identically for every pool size.  The distances
    from each of the [m] repeated classes are held in a row of [d]
    floats while the matrix fills: none on a log without repeats, at
    most [n^2 / 4] in all.  An evaluation that raises fails the matrix
    rows that read it, as in a per-pair fill.

    Crash-contained: the printing ({!Features.build_r}), the part build
    ({!Features.table_r}) and the matrix fill are each one
    [Parallel.Pool.map_range_r] batch, so failures (including injected
    faults and deadline skips) come back as typed [Task_failed] errors
    labelled by that batch — per-query feature builds as
    [label = "features.build"], matrix rows as
    [label = "dist_matrix.row"] — and every healthy task still runs; a
    missing database for {!Result} returns [Error [Invariant _]]. *)

val matrix :
  ?pool:Parallel.Pool.t -> ctx -> t -> Sqlir.Ast.query list
  -> Mining.Dist_matrix.t
(** {!matrix_r}, raising [Fault.Error.E] of the first error. *)

val session_matrix : Sqlir.Ast.query list list -> Mining.Dist_matrix.t
(** Session distances: [Mining.Dtw.normalized] between every two
    sessions (ordered query sequences), with the {!Structure} distance
    as the per-query cost.  The queries of all sessions share one
    {!Features} table of structure sets, and every cost is a table
    evaluation, counted in [kitdpe.distance.measure.evals]; the table
    and the matrix are
    built across [Parallel.Pool.global ()].  Because the cost is a
    preserved query distance, sessions encrypted under the structure
    scheme get the same matrix.
    @raise Fault.Error.E of the first feature-build or matrix-row
    error. *)

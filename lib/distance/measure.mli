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

val compute : ctx -> t -> Sqlir.Ast.query -> Sqlir.Ast.query -> float
(** @raise Fault.Error.E [(Invariant _)] if {!Result} is requested
    without a database. *)

val pair_of_features : ctx -> t -> Features.t -> int -> int -> float
(** [pair_of_features ctx m feats i j] is [compute ctx m] on queries
    [i] and [j] of the table, bit-identically, without touching query
    text.  Staged like {!Features.edit}: apply it to [i] once per row.
    @raise Fault.Error.E [(Invariant _)] for {!Result}, which has no
    feature-table form. *)

val matrix_r :
  ?pool:Parallel.Pool.t -> ctx -> t -> Sqlir.Ast.query list
  -> (Mining.Dist_matrix.t, Fault.Error.t list) result
(** The full symmetric pairwise matrix.  Prefer this over calling
    {!compute} per pair: per-query artifacts (printed form, token
    sequences, feature / clause sets, access areas) are precomputed once
    into a {!Features} table — O(n) tokenizations instead of O(n²) — and
    pairs are evaluated from the table, bit-identically to {!compute}
    (the result measure likewise evaluates each query once).  Filled by
    {!Mining.Dist_matrix.of_fun_r} across [pool] (default
    [Parallel.Pool.global ()]), identically for every pool size.

    Crash-contained: the feature build and the matrix fill are each one
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

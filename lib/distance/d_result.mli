(** Query-result distance (§IV-B3): Jaccard distance of the result tuple
    sets of the two queries, evaluated against a database instance.

    The database is part of the measure — sharing the log alone is not
    enough (Table I column "DB-Content"). *)

val distance : Minidb.Database.t -> Sqlir.Ast.query -> Sqlir.Ast.query -> float
(** @raise Minidb.Executor.Exec_error if either query is invalid for [db]. *)

val result_set : Minidb.Database.t -> Sqlir.Ast.query -> Minidb.Value.t list list
(** The deduplicated result tuple set ([result tuples(Q)] of Definition 4). *)

val matrix_r :
  ?pool:Parallel.Pool.t -> Minidb.Database.t -> Sqlir.Ast.query list
  -> (float array array, Fault.Error.t list) result
(** The full pairwise distance matrix, evaluating each query {e once}
    instead of once per pair — an O(n) vs O(n²) difference in executor
    work that dominates result-distance mining (see the perf bench).
    Query execution and the Jaccard pass ({!Mining.Dist_matrix.of_fun_r})
    run across [pool] (default [Parallel.Pool.global ()]).

    Crash-contained: a query whose execution raises is
    reported as [Task_failed {label = "result.query"; index; cause}]
    (its row would be meaningless, so no matrix is returned); a Jaccard
    row failure reports [label = "dist_matrix.row"].  All healthy work
    still runs to completion. *)

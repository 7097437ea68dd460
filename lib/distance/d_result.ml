let m_query_execs = Obs.Registry.counter "kitdpe.distance.result.query_execs"
let m_jaccard = Obs.Registry.counter "kitdpe.distance.result.jaccard_evals"

let result_set db q =
  Obs.Metric.incr m_query_execs;
  Minidb.Executor.result_tuple_set (Minidb.Executor.run db q)

let distance db q1 q2 =
  Jaccard.distance
    ~compare:(List.compare Minidb.Value.compare)
    (result_set db q1) (result_set db q2)

let matrix_r ?pool db queries =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.global () in
  let qs = Array.of_list queries in
  (* a failed query execution leaves its row/column undefined: report
     rather than build a partially meaningless matrix *)
  match
    Parallel.Pool.map_range_r pool ~label:"result.query" (Array.length qs)
      (fun i -> result_set db qs.(i))
  with
  | Error errors -> Error errors
  | Ok sets ->
    Mining.Dist_matrix.of_fun_r ~pool (Array.length sets) (fun i j ->
        Obs.Metric.incr m_jaccard;
        Jaccard.distance ~compare:(List.compare Minidb.Value.compare)
          sets.(i) sets.(j))

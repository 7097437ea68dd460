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
  let sets = Parallel.Pool.map_range_r pool (Array.length qs) (fun i -> result_set db qs.(i)) in
  let exec_errors = ref [] in
  Array.iteri
    (fun i r ->
      match r with
      | Ok _ -> ()
      | Error cause ->
        exec_errors :=
          Fault.Error.Task_failed { label = "result.query"; index = i; cause }
          :: !exec_errors)
    sets;
  match List.rev !exec_errors with
  | _ :: _ as errors ->
    (* a failed query execution leaves its row/column undefined: report
       rather than build a partially meaningless matrix *)
    Error errors
  | [] ->
    let sets = Array.map (function Ok s -> s | Error _ -> assert false) sets in
    (match
       Parallel.Sym_matrix.build_r ~pool (Array.length sets) (fun i j ->
           Obs.Metric.incr m_jaccard;
           Jaccard.distance ~compare:(List.compare Minidb.Value.compare)
             sets.(i) sets.(j))
     with
     | Ok m -> Ok m
     | Error errs ->
       Error
         (List.map
            (fun (i, cause) ->
              Fault.Error.Task_failed { label = "result.row"; index = i; cause })
            errs))

type t = Token | Structure | Result | Access | Edit | Clause

let all = [ Token; Structure; Result; Access ]
let extended = all @ [ Edit; Clause ]

let to_string = function
  | Token -> "token"
  | Structure -> "structure"
  | Result -> "result"
  | Access -> "access-area"
  | Edit -> "edit"
  | Clause -> "clause"

let of_string = function
  | "token" -> Some Token
  | "structure" -> Some Structure
  | "result" -> Some Result
  | "access-area" | "access" -> Some Access
  | "edit" | "levenshtein" -> Some Edit
  | "clause" | "aligon" -> Some Clause
  | _ -> None

type ctx = {
  db : Minidb.Database.t option;
  x : float;
}

let default_ctx = { db = None; x = D_access.default_x }
let ctx_with_db db = { default_ctx with db = Some db }

let needs_db_content = function
  | Result -> true
  | Token | Structure | Access | Edit | Clause -> false

let needs_domains = function
  | Access -> true
  | Token | Structure | Result | Edit | Clause -> false

let m_evals = Obs.Registry.counter "kitdpe.distance.measure.evals"
let m_matrix = Obs.Registry.sketch "kitdpe.distance.measure.matrix"

let compute ctx measure q1 q2 =
  Obs.Metric.incr m_evals;
  match measure with
  | Token -> D_token.distance_q q1 q2
  | Edit -> D_edit.distance_q q1 q2
  | Clause -> D_clause.distance q1 q2
  | Structure -> D_structure.distance q1 q2
  | Access -> D_access.distance ~x:ctx.x q1 q2
  | Result ->
    (match ctx.db with
     | Some db -> D_result.distance db q1 q2
     | None ->
       raise
         (Fault.Error.E
            (Fault.Error.Invariant
               { context = "Distance.Measure.compute";
                 reason = "result distance needs a database" })))

let missing_db context =
  Fault.Error.Invariant { context; reason = "result distance needs a database" }

let record_matrix_span measure queries t0 =
  if t0 > 0 then begin
    let dt = Obs.now_ns () - t0 in
    Obs.observe_latency m_matrix dt;
    Obs.Span.record ~cat:"distance"
      ~name:
        (Printf.sprintf "measure.matrix/%s(n=%d)" (to_string measure)
           (List.length queries))
      ~ts_ns:t0 ~dur_ns:dt ()
  end

(* feature-table pair evaluator: closes over the precomputed table, so
   the matrix fill touches no query text.  Bit-identical to
   [compute] per pair (see Features). *)
let pair_of_features ctx measure feats =
  match measure with
  | Token -> fun i j -> Obs.Metric.incr m_evals; Features.token feats i j
  | Structure -> fun i j -> Obs.Metric.incr m_evals; Features.structure feats i j
  | Edit -> fun i j -> Obs.Metric.incr m_evals; Features.edit feats i j
  | Clause -> fun i j -> Obs.Metric.incr m_evals; Features.clause feats i j
  | Access -> fun i j -> Obs.Metric.incr m_evals; Features.access ~x:ctx.x feats i j
  | Result ->
    raise
      (Fault.Error.E
         (Fault.Error.Invariant
            { context = "Distance.Measure.pair_of_features";
              reason = "the result distance has no feature-table form" }))

let matrix_r ?pool ctx measure queries =
  let t0 = Obs.time_start () in
  let r =
    match measure, ctx.db with
    | Result, Some db -> D_result.matrix_r ?pool db queries
    | Result, None -> Error [ missing_db "Distance.Measure.matrix_r" ]
    | (Token | Structure | Access | Edit | Clause), _ ->
      let pool = match pool with Some p -> p | None -> Parallel.Pool.global () in
      let qs = Array.of_list queries in
      Result.bind (Features.build_r ~pool qs) (fun feats ->
          Mining.Dist_matrix.of_fun_r ~pool (Array.length qs)
            (pair_of_features ctx measure feats))
  in
  record_matrix_span measure queries t0;
  r

let matrix ?pool ctx measure queries =
  Fault.Error.get_ok (matrix_r ?pool ctx measure queries)

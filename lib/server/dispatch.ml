(* Request execution: one [Proto.request] in, one response value out —
   always.  Every failure mode below the protocol layer is converted to
   a typed error response; nothing a request does can raise out of
   [handle].

   Deadlines: the worker passes the absolute deadline computed at
   arrival; [handle] installs it with [Parallel.Pool.with_deadline], so
   the [Parallel.Pool.map_range_r] batches underneath (feature builds,
   matrix rows), row encryption and complete link's merge loop abandon
   remaining work the moment it expires and the pool lanes go back to
   serving other requests.  Only encrypt/mine install it: stats/health
   never consult a deadline.

   Telemetry: [handle] is one section, [serve.<op>], timed into
   [kitdpe.server.request].  Span contexts are per sys-thread, so every
   span and pool batch the request opens joins its trace, and the
   sketch's exemplar names the request's own span.

   Graceful degradation: a mine request whose matrix has failed rows is
   re-run once on the healthy subset (never one above
   [Mine_plan.max_matrix_n]); the response is status "partial" with the
   surviving labels ([-1] for excluded queries) plus the typed error
   manifest.  Encrypt likewise returns the ciphertexts that
   succeeded plus per-query errors. *)

module M = Distance.Measure
module J = Obs.Json

type ctx = {
  tenants : Tenant.t;
  queue_depth : unit -> int;
  inflight : unit -> int;
  draining : unit -> bool;
}

let m_req_encrypt = Obs.Registry.counter "kitdpe.server.requests.encrypt"
let m_req_mine = Obs.Registry.counter "kitdpe.server.requests.mine"
let m_req_stats = Obs.Registry.counter "kitdpe.server.requests.stats"
let m_req_health = Obs.Registry.counter "kitdpe.server.requests.health"
let m_request = Obs.Registry.sketch "kitdpe.server.request"
let m_deadline = Obs.Registry.counter "kitdpe.server.deadline_exceeded"
let m_partial = Obs.Registry.counter "kitdpe.server.partial"

let deadline_err context = Fault.Error.Deadline_exceeded { context }

(* the result measure's database content for [mine], sized small enough
   for request latency *)
let db_for_log = Workload.Gen_db.for_log ~seed:"serve" ~rows:48

let parse_queries (req : Proto.request) =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | q :: rest -> (
      match Sqlir.Parser.parse_result q with
      | Ok ast -> go (i + 1) (ast :: acc) rest
      | Error e ->
        Error
          (Fault.Error.Protocol
             { reason = Printf.sprintf "queries[%d]: parse error: %s" i e }))
  in
  go 0 [] req.queries

(* ---- encrypt ---- *)

let encrypt ctx (req : Proto.request) log =
  let enc =
    Tenant.encryptor ctx.tenants ~tenant:req.tenant ~measure:req.measure log
  in
  let results =
    List.mapi
      (fun i q ->
        if Parallel.Pool.deadline_expired () then begin
          Obs.Metric.incr m_deadline;
          Error (deadline_err "Server.Dispatch.encrypt")
        end
        else
          Fault.Retry.run
            ~policy:(Fault.Retry.immediate (max 1 (req.retries + 1)))
            ~should_abort:Parallel.Pool.deadline_expired
            ~key:(Printf.sprintf "serve/encrypt/%d" i)
            (fun ~attempt ->
              ignore attempt;
              Fault.protect ~context:"Server.Dispatch.encrypt" (fun () ->
                  Dpe.Encryptor.encrypt_query enc q)))
      log
  in
  let ciphers =
    List.map
      (function
        | Ok c -> J.Str (Sqlir.Printer.to_string c)
        | Error _ -> J.Null)
      results
  in
  let errors = List.filter_map Result.(function Ok _ -> None | Error e -> Some e) results in
  let body = [ ("ciphertexts", J.Arr ciphers) ] in
  match errors with
  | [] -> Proto.response_ok ~id:req.id body
  | _ when List.length errors = List.length results && results <> [] ->
    Proto.response_error ~id:req.id (List.hd errors)
  | _ ->
    Obs.Metric.incr m_partial;
    Proto.response_partial ~id:req.id body ~errors

(* ---- mine ---- *)

(* an expiry that hits mid-batch arrives wrapped per task; it is still a
   whole-request deadline, not a recoverable row failure *)
let rec deadline_rooted = function
  | Fault.Error.Deadline_exceeded _ -> true
  | Fault.Error.Task_failed { cause; _ } | Fault.Error.Row_failed { cause; _ } ->
    deadline_rooted cause
  | _ -> false

(* [None] when a failure is not row-scoped (e.g. the result measure
   without a database); deadline skips are batch-wide and name no row *)
let failed_indices errors =
  if List.exists (function Fault.Error.Invariant _ -> true | _ -> false) errors
  then None
  else
    Some
      (List.filter_map
         (function Fault.Error.Task_failed { index; _ } -> Some index | _ -> None)
         errors)

let labels_body labels =
  [ ("labels", J.Arr (Array.to_list (Array.map J.int labels))) ]

let plan_body (plan : Mine_plan.t) =
  ("engine", J.Str (Mine_plan.engine_name plan.engine))
  :: (match plan.fallback with None -> [] | Some r -> [ ("fallback", J.Str r) ])

(* Engine choice and the algorithm live in [Mine_plan]; what stays here
   is the server's part: the tree seed fixed so seeded chaos runs stay
   bit-reproducible, deadline conversion, and one partial-subset retry
   when the matrix reports row-scoped failures. *)
let mine (req : Proto.request) log =
  match
    Mine_plan.plan ~measure:req.measure ~algo:req.algo
      ~engine:(Option.value req.engine ~default:"matrix") ~n:(List.length log)
      ~k:req.k
  with
  | Error e -> Proto.response_error ~id:req.id e
  | Ok plan -> (
    let mctx =
      if req.measure = M.Result then M.ctx_with_db (db_for_log log)
      else M.default_ctx
    in
    let params = { Mine_plan.k = req.k; eps = req.eps; seed = "serve" } in
    let ran, result = Mine_plan.run ~ctx:mctx params plan log in
    let deadline () =
      Obs.Metric.incr m_deadline;
      Proto.response_error ~id:req.id (deadline_err "Server.Dispatch.mine")
    in
    match result with
    | Ok labels -> Proto.response_ok ~id:req.id (labels_body labels @ plan_body ran)
    | Error errors when List.exists deadline_rooted errors -> deadline ()
    | Error errors -> (
      match failed_indices errors with
      | None -> Proto.response_error ~id:req.id (List.hd errors)
      | Some bad -> (
        let n = List.length log in
        let failed = Array.make n false in
        List.iter (fun i -> if 0 <= i && i < n then failed.(i) <- true) bad;
        let healthy = List.filteri (fun i _ -> not failed.(i)) log in
        let healthy_ix, excluded =
          List.partition (fun i -> not failed.(i)) (List.init n Fun.id)
        in
        let m = List.length healthy in
        if m < 2 || m > Mine_plan.max_matrix_n
           || not (Mine_plan.k_fits ran.algo ~k:req.k ~n:m)
        then Proto.response_error ~id:req.id (List.hd errors)
        else
          (* one degradation attempt on the healthy subset, with the
             plan that ran; a second failure means the fault is not
             row-scoped after all *)
          match snd (Mine_plan.run ~ctx:mctx params ran healthy) with
          | Error errs when List.exists deadline_rooted errs -> deadline ()
          | Error _ -> Proto.response_error ~id:req.id (List.hd errors)
          | Ok labels ->
            (* scatter the subset labels back; excluded queries are -1 *)
            let full = Array.make n (-1) in
            List.iteri (fun pos ix -> full.(ix) <- labels.(pos)) healthy_ix;
            Obs.Metric.incr m_partial;
            Proto.response_partial ~id:req.id
              (labels_body full
              @ [ ("excluded", J.Arr (List.map J.int excluded)) ]
              @ plan_body ran)
              ~errors)))

(* ---- stats / health ---- *)

let stats (req : Proto.request) =
  Proto.response_ok ~id:req.id [ ("snapshot", Obs.Export.snapshot ()) ]

let health ctx (req : Proto.request) =
  Proto.response_ok ~id:req.id
    [ ("health",
       J.Obj
         [ ("draining", J.Bool (ctx.draining ()));
           ("inflight", J.int (ctx.inflight ()));
           ("queue_depth", J.int (ctx.queue_depth ()));
           ("pool_lanes", J.int (Parallel.Pool.size (Parallel.Pool.global ()))) ]) ]

(* ---- entry point ---- *)

let run ctx (req : Proto.request) =
  match req.op with
  | Proto.Health ->
    Obs.Metric.incr m_req_health;
    health ctx req
  | Proto.Stats ->
    Obs.Metric.incr m_req_stats;
    stats req
  | Proto.Encrypt -> (
    Obs.Metric.incr m_req_encrypt;
    match parse_queries req with
    | Error e -> Proto.response_error ~id:req.id e
    | Ok log -> encrypt ctx req log)
  | Proto.Mine -> (
    Obs.Metric.incr m_req_mine;
    match parse_queries req with
    | Error e -> Proto.response_error ~id:req.id e
    | Ok log ->
      if List.length log < 2 then
        Proto.response_error ~id:req.id
          (Fault.Error.Protocol { reason = "mine needs at least 2 queries" })
      else mine req log)

let handle ?deadline_ns ctx (req : Proto.request) =
  Obs.Span.with_span ~sketch:m_request ~cat:"server"
    (Printf.sprintf "serve.%s" (Proto.op_to_string req.op))
    (fun () ->
      match
        match deadline_ns with
        | Some d when Proto.compute_op req.op ->
          Parallel.Pool.with_deadline ~deadline_ns:d (fun () -> run ctx req)
        | _ -> run ctx req
      with
      | resp -> resp
      | exception e ->
        (* last-resort containment: no request may crash a worker *)
        Proto.response_error ~id:req.id
          (Fault.Error.of_exn ~context:"Server.Dispatch.handle" e))

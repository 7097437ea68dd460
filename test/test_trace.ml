(* One server request is one trace: a token dbscan mine sent through
   [Server.Dispatch.handle] with telemetry on leaves a ring whose every
   span shares the [serve.mine] trace, whose parent edges all resolve,
   and whose layers nest request -> matrix -> fill.  The request
   sketch's exemplar points at the request's own span.  The dune stanza
   runs this binary once per pool size (KITDPE_DOMAINS=1 and 2), so the
   cross-lane pool spans are covered too. *)

module Proto = Server.Proto

let lanes = Parallel.Pool.size (Parallel.Pool.global ())

let queries =
  List.init 80 (fun i ->
      match i mod 3 with
      | 0 ->
        Printf.sprintf
          "SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN %d AND %d" i
          (i + 50)
      | 1 ->
        Printf.sprintf
          "SELECT class, COUNT(*) FROM photoobj WHERE magnitude < %d \
           GROUP BY class"
          i
      | _ -> Printf.sprintf "SELECT objid FROM photoobj WHERE class = 'C%d'" i)

let ctx =
  { Server.Dispatch.tenants = Server.Tenant.create ~master:"trace";
    queue_depth = (fun () -> 0);
    inflight = (fun () -> 0);
    draining = (fun () -> false) }

let request =
  { Proto.id = 1; op = Proto.Mine; tenant = "t";
    measure = Distance.Measure.Token; algo = "dbscan"; k = 2; eps = 0.45;
    deadline_ms = None; retries = 0; engine = None; queries }

let find name evs =
  match List.find_opt (fun e -> String.equal e.Obs.Span.name name) evs with
  | Some e -> e
  | None -> Alcotest.failf "no %s span" name

let test_one_trace () =
  Obs.set_enabled true;
  Obs.Registry.reset ();
  Obs.Span.clear ();
  let resp = Server.Dispatch.handle ctx request in
  Obs.set_enabled false;
  Alcotest.(check string) "mine ok" "ok" (Proto.response_status resp);
  let evs = Obs.Span.events () in
  let serve = find "serve.mine" evs in
  let matrix = find "measure.matrix/token(n=80)" evs in
  let fill = find "dist_matrix(n=80)" evs in
  let ids = List.map (fun e -> e.Obs.Span.span_id) evs in
  List.iter
    (fun (e : Obs.Span.event) ->
      Alcotest.(check int) (e.name ^ " in the request's trace") serve.trace_id
        e.trace_id;
      if e.parent_id <> 0 then
        Alcotest.(check bool) (e.name ^ " parent recorded") true
          (List.mem e.parent_id ids))
    evs;
  Alcotest.(check int) "request is a root" 0 serve.parent_id;
  Alcotest.(check int) "matrix under the request" serve.span_id
    matrix.parent_id;
  Alcotest.(check int) "fill under the matrix" matrix.span_id fill.parent_id;
  if lanes > 1 then
    Alcotest.(check bool) "pool batches recorded" true
      (List.exists (fun e -> String.equal e.Obs.Span.name "pool.batch") evs);
  match Obs.Sketch.exemplar (Obs.Registry.sketch "kitdpe.server.request") with
  | None -> Alcotest.fail "request sketch has no exemplar"
  | Some ex ->
    Alcotest.(check (pair int int)) "exemplar is the request span"
      (serve.trace_id, serve.span_id) (ex.ex_trace, ex.ex_span)

let () =
  Alcotest.run "trace"
    [ ( Printf.sprintf "request trace (lanes=%d)" lanes,
        [ Alcotest.test_case "token dbscan n=80 is one trace" `Quick
            test_one_trace ] ) ]

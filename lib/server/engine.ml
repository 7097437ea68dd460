(* The always-on server: accept loop + reader threads + a bounded
   admission queue + worker threads, with graceful drain.

   Thread/domain layout: sys-threads (accept loop, one reader per
   connection, N workers) all live on domain 0 and handle I/O and
   queueing; the compute parallelism is the process-wide
   [Parallel.Pool] of domains.  Heavy operations (encrypt, mine) run
   under [compute_lock]: the domain pool is the unit of parallelism —
   two concurrent batches would only oversubscribe its lanes.  Request
   deadlines are stored per sys-thread inside [Parallel.Pool], so
   concurrent handlers sharing domain 0 cannot corrupt each other's
   deadline; health and stats requests bypass the lock, never install
   a deadline, and stay responsive under load.

   Drain (SIGTERM/SIGINT or [request_drain]): the accept loop notices
   the flag within its 100 ms select tick and runs the shutdown
   sequence — close the listener, drain the admission queue (new
   submissions answered with typed [Draining]), join workers once the
   backlog is answered (zero dropped in-flight requests), close
   connections, join readers, then flush the OpenMetrics snapshot.
   [wait] returns when all of that is done.

   The reader-join phase is bounded: sessions get [SO_RCVTIMEO] so a
   peer stalled mid-frame cannot pin its reader in [Unix.read], and
   once the backlog is answered each reader closes when its socket
   goes idle, when its peer breaks framing, or — for peers that stall
   half-open or keep sending (every post-drain frame is answered with
   [Draining]) — at the [drain_grace_ms] deadline, after which the
   session is force-closed. *)

type config = {
  host : string;
  port : int;                     (* 0 picks an ephemeral port *)
  workers : int;
  queue_capacity : int;
  master : string;
  default_deadline_ms : int option;
  drain_grace_ms : int;
  metrics_path : string option;
}

let default_config =
  { host = "127.0.0.1";
    port = 0;
    workers = 4;
    queue_capacity = 64;
    master = "kitdpe-demo";
    default_deadline_ms = None;
    drain_grace_ms = 5_000;
    metrics_path = None }

type conn = {
  fd : Unix.file_descr;
  cid : int;
  wlock : Mutex.t;
  mutable alive : bool;  (* guarded by wlock *)
}

type job = {
  conn : conn;
  req : Proto.request;
  deadline_ns : int option;  (* absolute, computed at arrival *)
}

type t = {
  cfg : config;
  listener : Unix.file_descr;
  bound_port : int;
  tenants : Tenant.t;
  queue : job Admission.t;
  draining : bool Atomic.t;
  (* set only after the workers have answered the whole backlog: the
     signal for idle readers to close their sessions.  Distinct from
     [draining] so no session closes while a response is still owed. *)
  closing : bool Atomic.t;
  (* absolute [Obs.now_ns] time (set just before [closing]) past which
     readers abandon even non-idle sessions — the hard bound that keeps
     one half-open or endlessly chatty peer from stalling drain *)
  close_by : int Atomic.t;
  inflight : int Atomic.t;
  compute_lock : Mutex.t;
  conns_lock : Mutex.t;
  conns : (int, conn) Hashtbl.t;
  mutable next_cid : int;           (* guarded by conns_lock *)
  mutable readers : Thread.t list;  (* guarded by conns_lock *)
  mutable workers : Thread.t list;
  mutable accepter : Thread.t option;
}

let m_inflight = Obs.Registry.gauge "kitdpe.server.inflight"
let m_conns = Obs.Registry.gauge "kitdpe.server.connections"
let m_requests = Obs.Registry.counter "kitdpe.server.requests"
let m_responses = Obs.Registry.counter "kitdpe.server.responses"
let m_resp_ok = Obs.Registry.counter "kitdpe.server.responses.ok"
let m_resp_partial = Obs.Registry.counter "kitdpe.server.responses.partial"
let m_resp_error = Obs.Registry.counter "kitdpe.server.responses.error"
let m_resp_overloaded = Obs.Registry.counter "kitdpe.server.responses.overloaded"
let m_protocol_errors = Obs.Registry.counter "kitdpe.server.protocol_errors"
let m_queue_deadline = Obs.Registry.counter "kitdpe.server.deadline_exceeded"

let port t = t.bound_port

(* every response funnels through here: the counters make requests-in =
   responses-out checkable from the metrics snapshot alone *)
let send conn resp =
  let payload = Obs.Json.to_string resp in
  Mutex.lock conn.wlock;
  let delivered =
    conn.alive
    &&
    match Frame.write conn.fd payload with
    | Ok () -> true
    | Error _ ->
      (* peer vanished mid-response: the reader will observe the same
         and tear the session down; nothing to retry against *)
      conn.alive <- false;
      false
  in
  Mutex.unlock conn.wlock;
  if delivered then begin
    Obs.Metric.incr m_responses;
    Obs.Metric.incr
      (match Proto.response_status resp with
       | "ok" -> m_resp_ok
       | "partial" -> m_resp_partial
       | "overloaded" -> m_resp_overloaded
       | _ -> m_resp_error)
  end;
  delivered

let close_conn t conn =
  Mutex.lock conn.wlock;
  let was_alive = conn.alive in
  conn.alive <- false;
  Mutex.unlock conn.wlock;
  if was_alive then (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Mutex.lock t.conns_lock;
  Hashtbl.remove t.conns conn.cid;
  Obs.Metric.set_gauge m_conns (Hashtbl.length t.conns);
  Mutex.unlock t.conns_lock

(* ---- reader: one thread per connection ---- *)

let reader t conn =
  (* past the drain grace, abandon the session even mid-frame: every
     owed response was written before [closing] was set, so anything
     cut off here is a request the peer sent after being told Draining *)
  let past_grace () =
    Atomic.get t.closing && Obs.now_ns () > Atomic.get t.close_by
  in
  let continue = ref true in
  while !continue do
    if past_grace () then continue := false
    else
    (* wait for data on a short tick so drain can end idle sessions:
       once [closing] is set every owed response has been written, and
       an idle socket means the peer has nothing more in flight *)
    match Unix.select [ conn.fd ] [] [] 0.05 with
    | [], _, _ -> if Atomic.get t.closing then continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> continue := false
    | _ -> (
    match Frame.read ~should_abort:past_grace conn.fd with
    | Ok None ->
      (* clean close between requests *)
      continue := false
    | Error (Fault.Error.Protocol _ as e) ->
      (* framing broken: the byte stream cannot be resynchronized — send
         the typed error (best effort) and close the session cleanly *)
      Obs.Metric.incr m_protocol_errors;
      ignore (send conn (Proto.response_error e));
      continue := false
    | Error _ ->
      (* transport error (reset, EBADF after drain closed us): just stop *)
      continue := false
    | Ok (Some payload) -> (
      Obs.Metric.incr m_requests;
      match Proto.parse_request payload with
      | Error (id, e) ->
        (* payload garbage inside an intact frame: typed protocol error,
           session stays usable *)
        Obs.Metric.incr m_protocol_errors;
        ignore (send conn (Proto.response_error ?id e))
      | Ok req ->
        let deadline_ns =
          match
            (match req.Proto.deadline_ms with
             | Some ms -> Some ms
             | None -> t.cfg.default_deadline_ms)
          with
          | Some ms -> Some (Obs.now_ns () + (ms * 1_000_000))
          | None -> None
        in
        (match
           Admission.submit t.queue ~key:req.Proto.id { conn; req; deadline_ns }
         with
         | Ok () -> ()
         | Error e ->
           (* shed or draining: still exactly one response per request *)
           ignore (send conn (Proto.response_error ~id:req.Proto.id e)))))
  done;
  close_conn t conn

(* ---- workers ---- *)

let compute_op = function
  | Proto.Encrypt | Proto.Mine -> true
  | Proto.Stats | Proto.Health -> false

let worker t ctx =
  let continue = ref true in
  while !continue do
    match Admission.take t.queue with
    | None -> continue := false
    | Some { conn; req; deadline_ns } ->
      Atomic.incr t.inflight;
      Obs.Metric.set_gauge m_inflight (Atomic.get t.inflight);
      let resp =
        match deadline_ns with
        | Some d when Obs.now_ns () > d ->
          (* expired while queued: answer without burning compute *)
          Obs.Metric.incr m_queue_deadline;
          Proto.response_error ~id:req.Proto.id
            (Fault.Error.Deadline_exceeded { context = "Server.Engine.queue_wait" })
        | _ ->
          if compute_op req.Proto.op then begin
            Mutex.lock t.compute_lock;
            let r =
              Fun.protect
                ~finally:(fun () -> Mutex.unlock t.compute_lock)
                (fun () -> Dispatch.handle ?deadline_ns ctx req)
            in
            r
          end
          else Dispatch.handle ?deadline_ns ctx req
      in
      (* decrement before the response hits the wire: by the time the
         peer reads the answer and sends its next request, this one no
         longer counts — so a sequential client always observes a
         deterministic inflight in health responses (the chaos stage
         asserts faults-off streams are bit-identical) *)
      Atomic.decr t.inflight;
      Obs.Metric.set_gauge m_inflight (Atomic.get t.inflight);
      ignore (send conn resp)
  done

(* ---- accept loop and drain sequence ---- *)

let spawn_session t fd =
  (* a receive timeout turns a blocking mid-frame read into a 50 ms
     tick (EAGAIN), which [Frame.read] uses to re-poll the drain-grace
     abort — without it a peer stalling inside a frame would pin its
     reader in [Unix.read] forever and defeat graceful shutdown *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.05
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  Mutex.lock t.conns_lock;
  t.next_cid <- t.next_cid + 1;
  let conn = { fd; cid = t.next_cid; wlock = Mutex.create (); alive = true } in
  Hashtbl.replace t.conns conn.cid conn;
  Obs.Metric.set_gauge m_conns (Hashtbl.length t.conns);
  t.readers <- Thread.create (fun () -> reader t conn) () :: t.readers;
  Mutex.unlock t.conns_lock

let flush_metrics t =
  match t.cfg.metrics_path with
  | None -> ()
  | Some path -> (
    Obs.Export.refresh_runtime ();
    try
      let oc = open_out_bin path in
      output_string oc (Obs.Export.openmetrics ());
      close_out oc
    with Sys_error _ -> ())

let drain_sequence t =
  (* connections whose handshake completed in the kernel backlog before
     the drain flag was noticed: accept them into real sessions first,
     so their in-flight requests are answered (or typed Draining) — a
     listener closed over a pending connection would RST the peer and
     destroy data it already sent *)
  let rec sweep () =
    match Unix.select [ t.listener ] [] [] 0. with
    | _ :: _, _, _ -> (
      match Unix.accept t.listener with
      | fd, _ ->
        spawn_session t fd;
        sweep ()
      | exception Unix.Unix_error _ -> ())
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  sweep ();
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  (* stop admitting: readers now answer every new request with Draining,
     workers finish the backlog and exit on the empty drained queue *)
  Admission.start_drain t.queue;
  List.iter Thread.join t.workers;
  t.workers <- [];
  (* every queued request has been answered and written; readers now
     close their sessions as soon as the socket goes idle (any frame
     still arriving is answered with Draining first) — never with an
     unread byte in the receive buffer, so the close is a clean FIN and
     the peer keeps every buffered response.  The grace deadline bounds
     the whole phase: a peer that stalls mid-frame or keeps sending is
     force-closed once it passes, so one hostile client cannot stall
     the joins below *)
  Atomic.set t.close_by (Obs.now_ns () + (max 0 t.cfg.drain_grace_ms * 1_000_000));
  Atomic.set t.closing true;
  Mutex.lock t.conns_lock;
  let readers = t.readers in
  t.readers <- [];
  Mutex.unlock t.conns_lock;
  List.iter Thread.join readers;
  flush_metrics t

let accept_loop t ctx =
  while not (Atomic.get t.draining) do
    match Unix.select [ t.listener ] [] [] 0.1 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept t.listener with
      | fd, _ -> spawn_session t fd
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  ignore ctx;
  drain_sequence t

let io_error reason = Fault.Error.Io_failure { path = "listener"; reason }

let start cfg =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt listener Unix.SO_REUSEADDR true;
    Unix.bind listener
      (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
    Unix.listen listener 64;
    (match Unix.getsockname listener with
     | Unix.ADDR_INET (_, p) -> p
     | Unix.ADDR_UNIX _ -> 0)
  with
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close listener with Unix.Unix_error _ -> ());
    Error (io_error (Unix.error_message e))
  | exception Failure _ ->
    (* inet_addr_of_string on a malformed host *)
    (try Unix.close listener with Unix.Unix_error _ -> ());
    Error (io_error (Printf.sprintf "bad host %S" cfg.host))
  | bound_port ->
    let t =
      { cfg;
        listener;
        bound_port;
        tenants = Tenant.create ~master:cfg.master;
        queue = Admission.create ~capacity:cfg.queue_capacity;
        draining = Atomic.make false;
        closing = Atomic.make false;
        close_by = Atomic.make max_int;
        inflight = Atomic.make 0;
        compute_lock = Mutex.create ();
        conns_lock = Mutex.create ();
        conns = Hashtbl.create 16;
        next_cid = 0;
        readers = [];
        workers = [];
        accepter = None }
    in
    let ctx =
      { Dispatch.tenants = t.tenants;
        queue_depth = (fun () -> Admission.depth t.queue);
        inflight = (fun () -> Atomic.get t.inflight);
        draining = (fun () -> Atomic.get t.draining) }
    in
    t.workers <-
      List.init (max 1 cfg.workers) (fun _ -> Thread.create (fun () -> worker t ctx) ());
    t.accepter <- Some (Thread.create (fun () -> accept_loop t ctx) ());
    Ok t

(* signal handlers only flip the atomic: the accept loop notices within
   its 100 ms tick and runs the drain sequence on its own thread, so no
   mutex is ever taken from a signal context *)
let request_drain t = Atomic.set t.draining true

let wait t =
  match t.accepter with
  | Some th ->
    Thread.join th;
    t.accepter <- None
  | None -> ()

let run ?(on_ready = fun (_ : t) -> ()) cfg =
  match start cfg with
  | Error e -> Error e
  | Ok t ->
    let drain _ = request_drain t in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
    Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ());
    on_ready t;
    wait t;
    Ok ()

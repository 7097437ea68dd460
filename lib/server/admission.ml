(* Bounded admission queue: the server's backpressure valve.

   Submission never blocks — a full queue sheds the request with a typed
   [Overloaded] carrying a retry-after hint proportional to the backlog,
   and a draining queue rejects with [Draining]; both rejections still
   produce a response, which is what keeps the requests-in =
   responses-out invariant under overload and shutdown.  The
   [server.admission] injection point (keyed by the request id) lets
   chaos runs shed deterministically chosen requests without actually
   saturating the queue. *)

type 'a t = {
  capacity : int;
  q : 'a Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable draining : bool;
}

let m_depth = Obs.Registry.gauge "kitdpe.server.queue_depth"
let m_admitted = Obs.Registry.counter "kitdpe.server.admitted"
let m_shed = Obs.Registry.counter "kitdpe.server.shed"
let m_drain_rejects = Obs.Registry.counter "kitdpe.server.drain_rejections"

let create ~capacity =
  { capacity = max 1 capacity;
    q = Queue.create ();
    lock = Mutex.create ();
    nonempty = Condition.create ();
    draining = false }

let capacity t = t.capacity

let depth t =
  Mutex.lock t.lock;
  let d = Queue.length t.q in
  Mutex.unlock t.lock;
  d

(* the hint grows with the backlog so a stampede of retries spreads out;
   deterministic in the observed depth (no timestamps, no randomness) *)
let retry_after_ms depth = min 250 (10 + (5 * depth))

let overloaded depth =
  Fault.Error.Overloaded { queue_depth = depth; retry_after_ms = retry_after_ms depth }

let submit t ~key v =
  Mutex.lock t.lock;
  let depth_now = Queue.length t.q in
  let decision =
    if t.draining then Error Fault.Error.Draining
    else if depth_now >= t.capacity then Error (overloaded depth_now)
    else
      match Fault.point ~key "server.admission" with
      | () ->
        Queue.add v t.q;
        Ok ()
      | exception Fault.Error.E (Fault.Error.Injected _) ->
        (* an armed admission point simulates saturation: same typed
           rejection the client would see from a genuinely full queue *)
        Error (overloaded depth_now)
  in
  (match decision with
   | Ok () ->
     Obs.Metric.incr m_admitted;
     Obs.Metric.set_gauge m_depth (Queue.length t.q);
     Condition.signal t.nonempty
   | Error Fault.Error.Draining -> Obs.Metric.incr m_drain_rejects
   | Error _ -> Obs.Metric.incr m_shed);
  Mutex.unlock t.lock;
  decision

let take t =
  Mutex.lock t.lock;
  let rec go () =
    match Queue.take_opt t.q with
    | Some v ->
      Obs.Metric.set_gauge m_depth (Queue.length t.q);
      Mutex.unlock t.lock;
      Some v
    | None ->
      if t.draining then begin
        Mutex.unlock t.lock;
        None
      end
      else begin
        Condition.wait t.nonempty t.lock;
        go ()
      end
  in
  go ()

let start_drain t =
  Mutex.lock t.lock;
  t.draining <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock

(* Bounded admission queue: the server's backpressure valve.

   Submission never blocks — a full queue sheds the request with a typed
   [Overloaded] carrying a retry-after hint proportional to the backlog,
   and a draining queue rejects with [Draining]; both rejections still
   produce a response, which is what keeps the requests-in =
   responses-out invariant under overload and shutdown; [admit] takes
   the same decision without queueing.  The [server.admission]
   injection point (keyed by the request id) lets chaos runs shed
   deterministically chosen requests without actually saturating the
   queue. *)

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

(* the one admission decision, taken under [t.lock] and counted *)
let decide t ~key =
  let depth = Queue.length t.q in
  let decision =
    if t.draining then Error Fault.Error.Draining
    else if depth >= t.capacity then Error (overloaded depth)
    else
      (* an armed admission point simulates saturation: same typed
         rejection the client would see from a genuinely full queue *)
      try Ok (Fault.point ~key "server.admission")
      with Fault.Error.E (Fault.Error.Injected _) -> Error (overloaded depth)
  in
  Obs.Metric.incr
    (match decision with
     | Ok () -> m_admitted
     | Error Fault.Error.Draining -> m_drain_rejects
     | Error _ -> m_shed);
  decision

let admit t ~key = Mutex.protect t.lock (fun () -> decide t ~key)

let submit t ~key v =
  Mutex.protect t.lock (fun () ->
      let decision = decide t ~key in
      if Result.is_ok decision then begin
        Queue.add v t.q;
        Obs.Metric.set_gauge m_depth (Queue.length t.q);
        Condition.signal t.nonempty
      end;
      decision)

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

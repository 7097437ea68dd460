(** Bounded admission queue — the server's backpressure and load-shedding
    valve (DESIGN.md §14).

    {!submit} never blocks: a full queue sheds with a typed
    {!Fault.Error.Overloaded} whose [retry_after_ms] hint grows with the
    backlog, and a draining queue rejects with {!Fault.Error.Draining}.
    Both rejections are {e answers}, not drops — the caller turns them
    into responses, preserving requests-in = responses-out under
    overload and shutdown alike.

    Injection point: [server.admission], keyed by the request id — an
    armed trigger sheds deterministically chosen requests as
    [Overloaded], so CI exercises the shed path without a real
    stampede.

    Metrics: [kitdpe.server.queue_depth] (gauge),
    [kitdpe.server.admitted], [kitdpe.server.shed],
    [kitdpe.server.drain_rejections]. *)

type 'a t

val create : capacity:int -> 'a t
(** Capacity is clamped to [>= 1]. *)

val capacity : 'a t -> int
val depth : 'a t -> int

val submit : 'a t -> key:int -> 'a -> (unit, Fault.Error.t) result
(** Non-blocking admission.  [Error (Overloaded _)] when full (or the
    armed [server.admission] point fires on [key]), [Error Draining]
    after {!start_drain}. *)

val take : 'a t -> 'a option
(** Block until an item is available or the queue is draining {e and}
    empty ([None] — the worker's signal to exit).  Items queued before
    {!start_drain} are always handed out: drain finishes the backlog,
    it never discards it. *)

val start_drain : 'a t -> unit
(** Stop admitting; wake all blocked {!take} callers.  Idempotent. *)

val retry_after_ms : int -> int
(** The backoff hint embedded in [Overloaded] for a given queue depth
    (deterministic; exposed for tests). *)

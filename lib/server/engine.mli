(** The always-on encrypted-mining server (DESIGN.md §14).

    Sys-threads on domain 0 do the plumbing — an accept loop (100 ms
    select tick), one reader per connection, [workers] queue consumers —
    while compute parallelism comes from the process-wide
    [Parallel.Pool] of domains.  Encrypt/mine requests run one at a
    time under a compute lock: the domain pool is the unit of
    parallelism, and two concurrent batches would only oversubscribe
    its lanes.  Request deadlines live in [Parallel.Pool]'s
    per-sys-thread slots, so concurrent handlers sharing domain 0
    cannot corrupt each other's deadline.  Health and stats bypass the
    lock (and never install a deadline) and stay responsive under
    load.

    Robustness contract:
    - every successfully framed request gets exactly one response —
      success, typed error, [Overloaded] shed, or [Draining] rejection;
    - per-request deadlines (request [deadline_ms], else
      [default_deadline_ms]) are absolute from arrival: requests that
      expire while queued are answered without burning compute, and
      expiry mid-request abandons the remaining pool work;
    - drain (SIGTERM/SIGINT/{!request_drain}) closes the listener,
      answers the whole backlog (zero dropped in-flight requests),
      rejects new work with [Draining], then flushes the OpenMetrics
      snapshot;
    - drain is bounded: sessions carry [SO_RCVTIMEO], so a peer
      stalled mid-frame (or one that keeps sending after the backlog
      is answered) is force-closed once [drain_grace_ms] elapses —
      one half-open client can never stall shutdown.

    Metrics: [kitdpe.server.inflight], [kitdpe.server.connections]
    (gauges); [kitdpe.server.requests], [kitdpe.server.responses]
    (plus [.ok]/[.partial]/[.error]/[.overloaded] breakdowns),
    [kitdpe.server.protocol_errors], [kitdpe.server.deadline_exceeded]
    (counters). *)

type config = {
  host : string;                   (** bind address, default loopback *)
  port : int;                      (** 0 picks an ephemeral port *)
  workers : int;                   (** queue-consumer threads *)
  queue_capacity : int;            (** admission bound before shedding *)
  master : string;                 (** keyring passphrase *)
  default_deadline_ms : int option;(** applied when a request names none *)
  drain_grace_ms : int;            (** bound on the drain's session-close phase *)
  metrics_path : string option;    (** OpenMetrics snapshot written at drain *)
}

val default_config : config
(** Loopback, ephemeral port, 4 workers, capacity 64, no deadline, 5 s
    drain grace, no metrics snapshot. *)

type t

val start : config -> (t, Fault.Error.t) result
(** Bind, spawn workers and the accept loop, return immediately.
    [Error (Io_failure _)] if the address cannot be bound. *)

val port : t -> int
(** The actually bound port (useful with [port = 0]). *)

val request_drain : t -> unit
(** Flip the drain flag — safe from a signal handler (no locks); the
    accept loop notices within its 100 ms tick. *)

val wait : t -> unit
(** Block until the drain sequence has fully completed (backlog
    answered, sessions closed, metrics flushed). *)

val run : ?on_ready:(t -> unit) -> config -> (unit, Fault.Error.t) result
(** {!start}, install SIGTERM/SIGINT drain handlers (and ignore
    SIGPIPE), call [on_ready], then {!wait}. *)

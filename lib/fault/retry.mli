(** Bounded retry with exponential backoff and deterministic jitter.

    The policy's delay schedule is a pure function of (policy, key,
    attempt): jitter comes from the same seeded FNV-1a/splitmix64 hash
    the injection registry uses, never from an entropy source, so two
    runs with the same inputs retry on the same schedule — which is what
    keeps chaos reports reproducible (DESIGN.md §9/§14).

    Applied to the per-row encrypt retry in [Dpe.Db_encryptor] and to
    the server's request handlers. *)

type policy = {
  attempts : int;       (** total attempts, [>= 1] (1 = no retry) *)
  base_delay_ns : int;  (** delay before the first retry *)
  multiplier : float;   (** exponential growth factor per retry *)
  max_delay_ns : int;   (** cap on the un-jittered delay *)
  jitter : float;       (** fraction of the delay randomized away, [0..1] *)
}

val default : policy
(** 3 attempts, 1 ms base, x2 growth, 100 ms cap, 0.5 jitter. *)

val immediate : int -> policy
(** [immediate n]: [n] attempts with zero delay — bounded retry for hot
    paths where sleeping would cost more than recomputing.  Values
    [< 1] are clamped to 1. *)

val delay_ns : policy -> key:string -> attempt:int -> int
(** Backoff before [attempt] (attempts are 1-based; attempt 1 is the
    initial try and always has delay 0).  Deterministic in (policy, key,
    attempt). *)

val retryable : Error.t -> bool
(** The default retry filter: everything except {!Error.Deadline_exceeded},
    {!Error.Overloaded}, {!Error.Draining}, {!Error.Protocol} and
    {!Error.Invariant} — those answers do not improve with repetition. *)

val run :
  ?policy:policy ->
  ?sleep:(int -> unit) ->
  ?retryable:(Error.t -> bool) ->
  ?should_abort:(unit -> bool) ->
  key:string ->
  (attempt:int -> ('a, Error.t) result) ->
  ('a, Error.t) result
(** [run ~key f] calls [f ~attempt:1], retrying failed attempts (per
    [retryable], until [policy.attempts] or [should_abort ()]) with
    [sleep delay] between them ([sleep] defaults to a no-op so library
    callers stay deterministic; servers pass a real sleeper).
    Increments [kitdpe.fault.retried] per retry and
    [kitdpe.fault.retry_exhausted] when a retryable error runs out of
    attempts.  [should_abort] is checked after each failure — the server
    wires it to the request deadline so retries never outlive it. *)

val run_n :
  ?policy:policy ->
  ?sleep:(int -> unit) ->
  ?retryable:(Error.t -> bool) ->
  ?should_abort:(unit -> bool) ->
  key:string ->
  (attempt:int -> ('a, Error.t) result) ->
  ('a, int * Error.t) result
(** As {!run}, but the error side also reports how many attempts were
    made (for [Row_failed.attempts]-style accounting). *)

(** A fixed-size pool of OCaml 5 domains for data-parallel hot paths.

    The pool owns [size - 1] worker domains blocking on a shared task
    queue; the caller of a bulk operation participates as the remaining
    lane, so a pool of size [k] computes with [k] domains total.  Work is
    partitioned statically (strided, no work stealing) which is enough for
    the regular workloads here — distance matrices and bulk row
    encryption.

    A pool of size 1 spawns no domains at all and runs every operation
    sequentially in the caller, so library code can thread a pool
    unconditionally and keep a zero-overhead sequential fallback.

    Determinism: none of the combinators change *what* is computed, only
    *where*.  Every [map_*]/[for_range] call applies a caller-supplied
    function to each index exactly once and stores the result at that
    index, so for a pure function the output is bit-for-bit identical for
    every pool size (including 1).  Functions that close over mutable
    state must be domain-safe; all uses in this repository close over
    immutable data only.

    Nested use is safe: a task that itself calls a pool combinator helps
    drain the shared queue while waiting, so progress is guaranteed even
    when every worker is blocked on an inner batch. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] builds a pool of [domains] total lanes
    ([domains - 1] spawned worker domains plus the caller).  Values [< 1]
    are clamped to 1.  Without [~domains] the size is
    {!default_domains}[ ()]. *)

val default_domains : unit -> int
(** Pool size used by {!create} and {!global} when none is given: the
    value of the [KITDPE_DOMAINS] environment variable if it parses as a
    positive integer, else [max 1 (Domain.recommended_domain_count () - 1)]
    (one core is left to the OS / main program). *)

val size : t -> int
(** Total number of lanes (worker domains + caller), [>= 1]. *)

val global : unit -> t
(** The process-wide shared pool, created on first use with
    {!default_domains} lanes and shut down automatically at exit.  This is
    the pool used by [Mining.Dist_matrix], [Distance.Measure.matrix] and
    [Dpe.Db_encryptor] when the caller does not supply one. *)

val run_tasks : t -> (unit -> unit) list -> unit
(** Run the thunks to completion, across all lanes.  The caller executes
    tasks too.  If any task raises, [run_tasks] still waits for the whole
    batch and then re-raises the first exception observed.

    Trace causality (telemetry on): the batch records a ["pool.batch"]
    span parented on the submitting span, each task a ["pool.task"] span
    parented on the batch, and the submitter's [Obs.Span] context is
    transplanted onto whichever lane runs a task — so spans opened inside
    a task carry the submitting request's trace id regardless of pool
    size.  [for_range]/[map_range] and the [_r] variants inherit this by
    construction. *)

val for_range : t -> int -> (int -> unit) -> unit
(** [for_range p n f] calls [f i] exactly once for every [0 <= i < n],
    distributing indices across lanes in strides (lane [w] of [k] handles
    [w, w+k, w+2k, ...]), which balances triangular workloads such as
    distance-matrix rows.  Sequential when [n] is small or [size p = 1]. *)

val map_range : t -> int -> (int -> 'a) -> 'a array
(** [map_range p n f] is [Array.init n f] evaluated across the pool
    ([f 0] runs first, in the caller, to seed the result array). *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array p f a] is [Array.map f a] evaluated across the pool. *)

val mapi_array : t -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** [mapi_array p f a] is [Array.mapi f a] evaluated across the pool. *)

val both : t -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** [both p f g] runs the two thunks (possibly on different lanes) and
    returns both results — the fork/join shape of recursive divide-and-
    conquer builds (e.g. the metric-tree constructors in [Index]).
    Sequential on a 1-lane pool.  If either thunk raises, the batch
    still completes and the first exception observed is re-raised, same
    as {!run_tasks}. *)

val shutdown : t -> unit
(** Terminate and join the worker domains.  Call only when no bulk
    operation is in flight; further use of the pool falls back to
    sequential execution.  Idempotent. *)

(** {2 Crash-contained variants}

    Same work distribution as the plain combinators, but a task that
    raises is converted to a typed [Fault.Error.t] tied to its index
    instead of poisoning the batch: the batch always runs to
    completion, good results are kept and the caller receives an
    explicit per-index error report — never a hang, never a silently
    missing entry.  Each task carries the ["parallel.pool.task"]
    injection point keyed by its index, so an armed chaos trigger
    selects the same victims for every pool size. *)

val run_tasks_r : t -> (unit -> unit) list -> (int * Fault.Error.t) list
(** Run every thunk; return the contained failures as
    [(task_index, error)], sorted by index ([[]] = all succeeded). *)

val for_range_r : t -> int -> (int -> unit) -> (int * Fault.Error.t) list
(** As {!for_range}, returning the indices whose [f i] raised. *)

val map_range_r : t -> int -> (int -> 'a) -> ('a, Fault.Error.t) result array
(** As {!map_range}, with per-slot results: [Ok (f i)] or the typed
    error [f i] raised. *)

val lane_crashes : unit -> int
(** Number of times a worker lane had to be respawned because an
    exception escaped a task wrapper (0 in healthy runs; not gated on
    [Obs.is_enabled]). *)

(** {2 Deadlines}

    A request-scoped absolute deadline (on the [Obs.now_ns] clock)
    travels with the submitting request: {!with_deadline} sets it on
    the submitting thread, {!run_tasks} snapshots it into every queued
    job, and the executing lane installs it for the job's duration — so
    deadline checks inside pool work see the {e submitting request's}
    budget regardless of which domain runs them, with telemetry on or
    off.

    The slot is keyed per sys-thread (not per domain): concurrent
    server threads sharing domain 0 each get an independent deadline,
    so overlapping {!with_deadline} scopes can never corrupt one
    another's save/restore.

    The crash-contained combinators ({!run_tasks_r}, {!for_range_r},
    {!map_range_r}) check the deadline before every index: once it
    expires, remaining indices are skipped in O(1) each and reported as
    typed [Deadline_exceeded] errors — the batch completes immediately
    and the lanes are released to other requests, never left grinding
    orphaned work.  The plain combinators stay deadline-blind: their
    contract is complete, bit-identical output.

    Metrics: [kitdpe.parallel.pool.deadline_skips] counts abandoned
    indices. *)

val with_deadline : deadline_ns:int -> (unit -> 'a) -> 'a
(** [with_deadline ~deadline_ns f] runs [f] with the absolute deadline
    installed on the calling lane (restored afterwards, exception-safe).
    Nested deadlines only tighten: the effective deadline is the
    minimum of the enclosing and the new one. *)

val current_deadline_ns : unit -> int option
(** The calling lane's effective deadline, if any. *)

val deadline_expired : unit -> bool
(** True iff a deadline is installed on the calling thread and the
    clock has passed it.  Without a deadline this is one (uncontended
    on pool lanes) slot read. *)

val check_deadline : context:string -> unit -> unit
(** Raise [Fault.Error.E (Deadline_exceeded {context})] if
    {!deadline_expired}.  For hand-rolled loops on the request path
    (e.g. per-row encryption) that want the same abandonment behaviour
    as the [_r] combinators. *)

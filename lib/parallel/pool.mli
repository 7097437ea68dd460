(** A fixed-size pool of OCaml 5 domains for data-parallel hot paths.

    The pool owns [size - 1] worker domains blocking on a shared task
    queue; the caller of a bulk operation participates as the remaining
    lane, so a pool of size [k] computes with [k] domains total.  Work is
    partitioned statically (strided, no work stealing) which is enough for
    the regular workloads here — distance matrices and bulk row
    encryption.

    Two failure contracts.  The plain combinators ({!run_tasks},
    {!for_range}, {!map_range}, {!both}) run the whole batch and then
    re-raise the first exception a task raised.  {!map_range_r} is the
    one crash-contained batch: it turns each failing index into a typed
    [Fault.Error.Task_failed] and returns the report.

    A pool of size 1 spawns no domains at all and runs every operation
    sequentially in the caller, so library code can thread a pool
    unconditionally and keep a zero-overhead sequential fallback.

    Determinism: none of the combinators change *what* is computed, only
    *where*.  Every [map_range]/[for_range] call applies a caller-supplied
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
    size.  [for_range], [map_range] and {!map_range_r} inherit this by
    construction. *)

val for_range : t -> int -> (int -> unit) -> unit
(** [for_range p n f] calls [f i] exactly once for every [0 <= i < n],
    distributing indices across lanes in strides (lane [w] of [k] handles
    [w, w+k, w+2k, ...]), which balances triangular workloads such as
    distance-matrix rows.  Sequential when [n] is small or [size p = 1]. *)

val map_range : t -> int -> (int -> 'a) -> 'a array
(** [map_range p n f] is [Array.init n f] evaluated across the pool
    ([f 0] runs first, in the caller, to seed the result array). *)

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

(** {2 The crash-contained batch} *)

val map_range_r :
  t -> label:string -> int -> (int -> 'a) -> ('a array, Fault.Error.t list) result
(** [map_range_r p ~label n f] is {!map_range}[ p n f] with every index
    contained: a task that raises becomes a typed error tied to its
    index instead of poisoning the batch.  The batch always runs to
    completion; [Ok] holds all [n] results, else [Error] lists each
    failed index [i] as [Task_failed {label; index = i; cause}] in
    index order — never a hang, never a silently missing entry.  This
    is the pool's one contained combinator: matrix rows, feature
    builds, query executions and noise fills are all one
    [map_range_r] call with their own [label].

    Per index, before [f i] runs: an expired request deadline (see
    Deadlines below) skips it with [cause = Deadline_exceeded], and
    the ["parallel.pool.task"] injection point fires keyed by [i], so an
    armed chaos trigger selects the same victims for every pool size,
    1 lane included.  Each caught exception counts once in
    [kitdpe.parallel.pool.contained]. *)

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

    The slot is the per-sys-thread [Obs.Slot]: server threads sharing
    domain 0 each keep their own deadline.

    {!map_range_r} checks the deadline before every index: once it
    expires, remaining indices are skipped in O(1) each and reported as
    typed [Deadline_exceeded] causes — the batch completes immediately
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
    as {!map_range_r}. *)

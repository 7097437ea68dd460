(** Request execution for [dpe_serve]: one request in, one response
    value out — {e always}.  Every failure below the protocol layer
    (typed errors, injected faults, stray exceptions) becomes a typed
    error response; nothing a request does can raise out of {!handle}
    or crash the thread that handles it.

    Deadline propagation: [?deadline_ns] (absolute, computed at
    arrival) is installed via [Parallel.Pool.with_deadline] for the
    request's duration, so the contained batches underneath — feature
    builds and matrix rows ([Parallel.Pool.map_range_r]), per-query
    encryption — abandon remaining work
    the moment it expires and release their pool lanes.  Only
    encrypt/mine install it; stats/health never consult a deadline and
    leave the calling thread's slot untouched.

    Mining: {!Mine_plan} chooses the engine and runs the algorithm
    (DESIGN.md §15); an absent [engine] field means the matrix engine.
    Every mine response names the engine that ran in ["engine"] and,
    after a fallback, the reason in ["fallback"].

    Graceful degradation (DESIGN.md §14): a mine whose matrix reports
    row-scoped failures is rebuilt once on the healthy subset and
    answered as status ["partial"] — labels with [-1] for excluded
    queries, an [excluded] index list, and the typed error manifest.
    Encrypt returns per-query ciphertexts with [null] for failed slots
    plus their errors; each query gets a bounded
    [Fault.Retry] budget ([request.retries]) that never outlives the
    deadline.

    Metrics: [kitdpe.server.requests.{encrypt,mine,stats,health}],
    [kitdpe.server.request] (latency sketch of the [serve.<op>] span),
    [kitdpe.server.deadline_exceeded],
    [kitdpe.server.partial]. *)

type ctx = {
  tenants : Tenant.t;
  queue_depth : unit -> int;
  inflight : unit -> int;
  draining : unit -> bool;
}

val handle : ?deadline_ns:int -> ctx -> Proto.request -> Obs.Json.t
(** Execute the request and build its response.  Total: never raises. *)

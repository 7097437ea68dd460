(** Observability for the KIT-DPE tree: counters, gauges and
    DDSketch-style quantile sketches backed by per-domain sharded cells
    (merge-on-read, lock-free writes), spans with trace causality and a
    Chrome [trace_event] exporter, rolling time-window aggregation, and
    an OpenMetrics / versioned-JSON export layer.  The sketch is the one
    latency instrument: each timed layer feeds one clock read into one
    sketch, via {!observe_latency}.  {!Json} is the one JSON codec:
    {!Registry.to_json} and {!Export.snapshot} build {!Json.t} values,
    and {!Json.to_string} renders them and every other JSON the tree
    writes.

    The whole subsystem sits behind one atomic guard: with it off (the
    default), every instrumentation point in the tree performs a single
    atomic load and allocates nothing, so the tier-1 performance paths
    are untouched.  Set the [KITDPE_OBS] environment variable to
    [1]/[true]/[yes]/[on] to enable it at startup, or call
    {!set_enabled} at runtime ([dpe_cli stats] and the bench trajectory
    do).

    Naming convention for registered metrics:
    [kitdpe.<layer>.<name>] — e.g. [kitdpe.crypto.ope.cache_hits].
    Everything outside [kitdpe.parallel.*] counts workload semantics and
    is invariant under [KITDPE_DOMAINS]; the [kitdpe.parallel.*] family
    (per-lane task counts, busy nanoseconds) describes the execution
    substrate and varies with the pool size by design. *)

module Metric = Metric
module Sketch = Sketch
module Registry = Registry
module Span = Span
module Window = Window
module Trace = Trace
module Json = Json
module Export = Export

val set_enabled : bool -> unit
val is_enabled : unit -> bool

val now_ns : unit -> int
(** Wall-clock nanoseconds (microsecond granularity) as a native int. *)

val time_start : unit -> int
(** [now_ns ()] when enabled, [0] when disabled.  A timed section tests
    the [0] sentinel, so it costs nothing when telemetry is off:
    {[ let t0 = Obs.time_start () in
       ... work ...
       if t0 > 0 then Obs.observe_latency sketch (Obs.now_ns () - t0) ]} *)

val observe_latency : Sketch.t -> int -> unit
(** [observe_latency s dt] records [dt] nanoseconds in [s], with the
    calling domain's current span as the outlier exemplar.  A site that
    also records a span passes it the same [dt], so the site reads the
    clock once.  No-op (and no allocation) when telemetry is off. *)

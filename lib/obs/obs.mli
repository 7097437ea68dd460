(** Observability for the KIT-DPE tree: counters, gauges and
    DDSketch-style quantile sketches backed by per-domain sharded cells
    (merge-on-read, lock-free writes), spans with trace causality and a
    Chrome [trace_event] exporter, rolling time-window aggregation, and
    an OpenMetrics / versioned-JSON export layer.  The sketch is the one
    latency instrument and {!Span.with_span} the one way a layer times a
    section: it opens a span around the work and feeds the section's
    sketch with the span as exemplar.  Closure-free hot points (one
    cipher call) use {!time_start} and {!observe_latency} instead.
    {!Json} is the one JSON codec: {!Registry.to_json} and
    {!Export.snapshot} build {!Json.t} values, and {!Json.to_string}
    renders them and every other JSON the tree writes.

    The whole subsystem sits behind one atomic guard.  With it off (the
    default), {!Metric.incr}, {!Metric.add}, {!Sketch.observe},
    {!time_start}, {!observe_latency} and {!Span.record} each perform a
    single atomic load and allocate nothing, and {!Span.with_span} and
    {!Span.with_context} are a direct call to their thunk: a section
    costs only its name (often a [sprintf]) and its closure.  Set the
    [KITDPE_OBS] environment variable to [1]/[true]/[yes]/[on] to enable
    it at startup, or call {!set_enabled} at runtime ([dpe_cli stats]
    and the bench trajectory do).

    Naming convention for registered metrics:
    [kitdpe.<layer>.<name>] — e.g. [kitdpe.crypto.ope.cache_hits].
    Everything outside [kitdpe.parallel.*] counts workload semantics and
    is invariant under [KITDPE_DOMAINS]; the [kitdpe.parallel.*] family
    (per-lane task counts, busy nanoseconds) describes the execution
    substrate and varies with the pool size by design. *)

module Metric = Metric
module Sketch = Sketch
module Registry = Registry
module Slot = Slot
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
(** [now_ns ()] when enabled, [0] when disabled.  A closure-free hot
    point tests the [0] sentinel, so it costs nothing when telemetry is
    off:
    {[ let t0 = Obs.time_start () in
       ... work ...
       if t0 > 0 then Obs.observe_latency sketch (Obs.now_ns () - t0) ]} *)

val observe_latency : Sketch.t -> int -> unit
(** [observe_latency s dt] records [dt] nanoseconds in [s], with the
    calling thread's current span (the enclosing section) as the outlier
    exemplar.  For hot points that record no span of their own; a
    section passes [~sketch] to {!Span.with_span} instead.  No-op (and
    no allocation) when telemetry is off. *)

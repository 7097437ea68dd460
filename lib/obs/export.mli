(** Export layer: OpenMetrics text exposition, the versioned JSON
    snapshot schema shared by [dpe_cli stats]/[top] and the bench
    ["metrics"] stamp, and snapshot diffing for [stats --diff]. *)

val schema_name : string
(** ["kitdpe.metrics"]. *)

val schema_version : int
(** Bump on any incompatible change to {!snapshot}'s layout.
    Version 2 removed the log2 [*_ns] histograms: every latency is a
    sketch. *)

val refresh_runtime : unit -> unit
(** Refresh the [kitdpe.runtime.*] gauges
    ([minor_collections]/[major_collections]/[heap_words]/
    [promoted_words]) from [Gc.quick_stat].  Called automatically by
    {!openmetrics} and {!snapshot}. *)

val openmetrics : unit -> string
(** The registry in OpenMetrics/Prometheus text exposition format:
    counters as [_total], gauges plain, sketches as summaries with
    p50/p90/p99 [quantile] labels and [_sum]/[_count]; ends with
    [# EOF].  Metric names are
    sanitized ([.] -> [_]). *)

val snapshot : ?now:int -> unit -> Json.t
(** One JSON object (render with {!Json.to_string}):
    [{"schema": "kitdpe.metrics", "schema_version": 2,
      "generated_ns": ..., "spans": {...},
      "window": {"epoch_ns", "capacity", "epochs", "rates", "quantiles"},
      "metrics": {...}}]
    where [rates] maps monotonic metric names to windowed ops/s,
    [quantiles] maps sketch names to recent p50/p90/p99, and [metrics]
    is the [Registry.to_json] map.  [?now] (ns) is injectable for
    deterministic tests. *)

val diff : old_json:string -> (string, string) result
(** Render a per-metric old/new/delta table of the live registry against
    a previously saved {!snapshot} (a bare registry dump is also
    accepted).  [Error] when the old snapshot does not parse. *)

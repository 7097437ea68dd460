(** Process-wide [name -> metric] table.  Creation is get-or-create
    under a mutex (cold path): the instrumented modules look their
    metrics up once, at module initialization; updates go straight to
    the sharded cells; {!snapshot} merges on read.

    Naming convention: [kitdpe.<layer>.<name>], e.g.
    [kitdpe.crypto.ope.cache_hits].  Metrics outside [kitdpe.parallel.*]
    describe the workload and are invariant under [KITDPE_DOMAINS];
    [kitdpe.parallel.*] describes the execution substrate and
    legitimately varies with the pool size. *)

val counter : string -> Metric.counter
val gauge : string -> Metric.gauge

val sketch : string -> Sketch.t
(** Get or create.  @raise Invalid_argument if the name is already
    registered with a different kind. *)

type value =
  | Vcounter of int
  | Vgauge of int
  | Vsketch of {
      count : int;
      sum : int;
      max : int;
      p50 : float;
      p90 : float;
      p99 : float;
      exemplar : (int * int * int) option;
          (** [(value_ns, trace_id, span_id)] of the largest observation. *)
    }

type sample = { name : string; value : value }

val snapshot : unit -> sample list
(** Merge-on-read snapshot of every registered metric, sorted by name. *)

val find : string -> value option

val reset : unit -> unit
(** Zero every registered metric (keeps registrations). *)

val dump : Format.formatter -> unit
(** Human-readable one-line-per-metric text dump. *)

val to_json : unit -> Json.t
(** The snapshot as one JSON object (render with {!Json.to_string}):
    [{"<name>": {"type": "counter", "value": n}, ...}]; sketches carry
    [count]/[sum_ns]/[max_ns], [p50_ns]/[p90_ns]/[p99_ns] and an
    optional outlier [exemplar]. *)

(** {2 In-library raw access}

    [Window] and [Export] need the live metric objects (e.g. raw sketch
    buckets for windowed deltas), not the rendered snapshot. *)

type metric =
  | Counter of Metric.counter
  | Gauge of Metric.gauge
  | Sketch of Sketch.t

val iter : (string -> metric -> unit) -> unit
(** Iterate name-sorted; the callback runs outside the registry lock. *)

val find_metric : string -> metric option

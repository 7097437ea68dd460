(** DDSketch-style relative-error quantile sketch.

    Values land in geometric buckets of ratio
    [gamma = (1+alpha)/(1-alpha)]; any reported quantile is within
    [alpha] (1%) relative error of the true order statistic under the
    ceil-rank convention (the q-quantile of n values is the
    [ceil (q * n)]-th smallest).  Buckets are per-domain sharded atomic
    cells exactly like [Metric] counters — lock-free writes,
    merge-on-read —
    installed lazily so idle sketches stay small.  All updates are gated
    on the global enabled flag: disabled, {!observe} costs one atomic
    load and allocates nothing. *)

type t

val alpha : float
(** Relative-error target, 0.01. *)

val gamma : float
(** Bucket growth ratio [(1+alpha)/(1-alpha)]. *)

val bucket_count : int

val create : unit -> t
(** An unregistered sketch (tests); production code uses
    [Registry.sketch]. *)

val observe : t -> ?trace_id:int -> ?span_id:int -> int -> unit
(** Record one observation (intended unit: nanoseconds).  When the value
    becomes the new maximum, the optional span context is kept as the
    sketch's outlier {!exemplar}; [Obs.observe_latency] supplies the
    current span. *)

val count : t -> int
val sum : t -> int

val max_value : t -> int
(** Largest observed value (0 when empty). *)

type exemplar = { ex_value : int; ex_trace : int; ex_span : int }

val exemplar : t -> exemplar option
(** Span context of the largest observation, when one was supplied —
    links a latency outlier back to its trace. *)

val quantile : t -> float -> float option
(** [quantile s q] for [q] in [0, 1]; [None] when empty. *)

val sparse : t -> (int * int) list
(** Non-empty buckets as [(bucket_index, count)], ascending — the
    transportable form used by [Window] deltas. *)

val quantile_of_sparse : (int * int) list -> float -> float option
(** Quantile over an externally assembled (e.g. windowed-delta) sparse
    bucket list. *)

val bucket_of : int -> int
val value_of_bucket : int -> float
(** Bucket midpoint [2 * gamma^i / (gamma + 1)] (exposed for tests). *)

val reset : t -> unit

(** Counters and gauges.

    Counters are per-domain sharded cells: writers hash [Domain.self ()]
    to a shard and bump it with one [Atomic.fetch_and_add]; readers
    merge all shards on demand.  No locks anywhere.  Counter updates are
    gated on the enabled flag, so with observability off an instrumented
    hot path costs exactly one atomic load and allocates nothing.
    Latencies go to {!Sketch}. *)

type counter
type gauge

val counter : unit -> counter
(** An unregistered counter (tests); production code uses
    [Registry.counter]. *)

val incr : counter -> unit
val add : counter -> int -> unit

val value : counter -> int
(** Merge-on-read sum over all shards. *)

val reset_counter : counter -> unit

val gauge : unit -> gauge
(** Gauge writes are {e not} gated on the enabled flag: they record
    cold-path configuration (one atomic store, no allocation) and must
    survive a later [set_enabled true]. *)

val set_gauge : gauge -> int -> unit
val gauge_value : gauge -> int
val reset_gauge : gauge -> unit

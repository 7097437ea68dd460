(** Per-domain sharded [int] cells: the storage under {!Metric} counters
    and {!Sketch} buckets.  A writer bumps [cells.(index ())] with one
    [Atomic.fetch_and_add]; readers {!merge} all shards.  Internal to
    the library — the [Obs] facade does not alias this module. *)

type cells = int Atomic.t array

val count : int
(** Shards per cell array (a power of two). *)

val index : unit -> int
(** The calling domain's shard. *)

val make : unit -> cells
val merge : cells -> int
val clear : cells -> unit

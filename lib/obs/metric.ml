(* Counters and gauges.  Counters sit on [Shard] cells; every counter
   write is gated on [Control.is_on], so with observability off an
   instrumented hot path costs exactly one atomic load and allocates
   nothing. *)

(* ---- counters ---- *)

type counter = Shard.cells

let counter () : counter = Shard.make ()

let add (c : counter) n =
  if Control.is_on () then ignore (Atomic.fetch_and_add c.(Shard.index ()) n)

let incr c = add c 1
let value : counter -> int = Shard.merge
let reset_counter : counter -> unit = Shard.clear

(* ---- gauges ---- *)

(* last-write-wins; set from one place at a time (pool sizes, config),
   so a single cell suffices.  Unlike counters, gauge writes are NOT
   gated on the enabled flag: they record cold-path configuration
   (an atomic store, no allocation), and gating them would lose values
   set before telemetry is switched on — e.g. the pool size gauge when
   the global pool is created at startup and [Obs] is enabled later. *)
type gauge = int Atomic.t

let gauge () : gauge = Atomic.make 0
let set_gauge (g : gauge) v = Atomic.set g v
let gauge_value : gauge -> int = Atomic.get
let reset_gauge (g : gauge) = Atomic.set g 0

(* The single on/off switch for the whole observability subsystem, plus
   the clock shared by the sibling modules.  Everything
   here is dependency-free so every other layer of the tree can link
   against [obs] without cycles. *)

let env_truthy = function
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some _ | None -> false

(* flipped by [Obs.set_enabled]; seeded from the environment so CI and
   bench runs can turn telemetry on without code changes *)
let enabled = Atomic.make (env_truthy (Sys.getenv_opt "KITDPE_OBS"))

let is_on () = Atomic.get enabled

(* wall-clock nanoseconds as a native int (63 bits outlast the epoch).
   gettimeofday is only microsecond-granular, which is fine: every timed
   operation here costs at least a handful of microseconds. *)
let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(** The single on/off switch for the observability subsystem, plus the
    clock shared by the sibling modules.
    Dependency-free so every layer can link [obs] without cycles. *)

val enabled : bool Atomic.t
(** Seeded from [KITDPE_OBS] ([1]/[true]/[yes]/[on]); flipped at runtime
    by [Obs.set_enabled]. *)

val is_on : unit -> bool

val now_ns : unit -> int
(** Wall-clock nanoseconds as a native int (microsecond granularity —
    every timed operation here costs at least a few microseconds). *)

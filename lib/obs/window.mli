(** Rolling time-window aggregation over the registry.

    A bounded ring of epoch snapshots (default 60 x 1 s) captures the
    monotonic part of every registered metric at rotation time; rates
    and recent quantiles are deltas between the live metric and the
    oldest epoch inside the requested window, so a long-running process
    reports what happened in the last minute, not since boot.

    Rotation is cold-path (mutex, once per epoch).  Every entry point
    takes [?now] (nanoseconds) so tests drive rotation and expiry
    deterministically; omitted, the wall clock is used. *)

val default_epochs : int
(** 60. *)

val default_epoch_ns : int
(** 1 s. *)

val configure : ?epochs:int -> ?epoch_ns:int -> unit -> unit
(** Resize the ring / set the epoch length; drops buffered epochs. *)

val reset : unit -> unit
(** Drop buffered epochs (keeps the configuration). *)

val tick : ?now:int -> unit -> unit
(** Rotate if the newest epoch is at least one epoch old (or none
    exists).  Call from any periodic or per-request site; no-op when
    telemetry is disabled. *)

val force : ?now:int -> unit -> unit
(** Rotate unconditionally (snapshot consumers, tests). *)

val rate : ?now:int -> ?window_ns:int -> string -> float option
(** Events per second for a counter or sketch over the
    window (default: the full ring span): live count minus the oldest
    in-window epoch's count, over the elapsed time.  [None] when the
    metric is unknown, is a gauge, or no epoch lies inside the
    window. *)

val quantile : ?now:int -> ?window_ns:int -> string -> float -> float option
(** Recent quantile of a registered sketch: quantile of the live sparse
    buckets minus the oldest in-window epoch's.  With no epoch buffered
    the whole (since-boot) sketch is used.  [None] for non-sketches or
    when no observation fell inside the window. *)

val epoch_count : unit -> int
val epoch_ns : unit -> int
val capacity : unit -> int

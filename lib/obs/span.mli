(** Coarse-grained timed sections collected into a bounded ring buffer
    (completion order; oldest events are overwritten and counted as
    dropped, both in the ring and as the registered counter
    [kitdpe.obs.span.dropped]).  Spans are per-batch, not per-cell, so a
    mutex-guarded ring is plenty: the lock is taken once per completed
    span.

    Every span carries a trace id and a parent span id.  The current
    context lives in a per-sys-thread {!Slot}, so server threads sharing
    domain 0 each keep their own: {!with_span} pushes itself as parent
    for its dynamic extent, and {!with_context} transplants a captured
    context onto another domain (how [Parallel.Pool] parents lane-side
    spans on the submitting span).  Ids are process-unique positive
    ints; [0] means "none". *)

type context = { trace : int; span : int }

val root_context : context
(** [{trace = 0; span = 0}] — no enclosing span. *)

val current : unit -> context
(** The calling thread's context (a {!Slot.get}). *)

val child_context : context -> context
(** Fresh span id under the parent's trace (a fresh trace when the
    parent is {!root_context}) — pre-allocates the identity of a span
    whose body runs elsewhere, e.g. a pool batch. *)

val with_context : context -> (unit -> 'a) -> 'a
(** Run the thunk with the given context installed as current (restored
    after); a direct call when disabled. *)

type event = {
  name : string;
  cat : string;
  ts_ns : int;  (** span start, wall-clock ns *)
  dur_ns : int;
  tid : int;  (** domain id *)
  trace_id : int;
  span_id : int;
  parent_id : int;  (** 0 = root *)
}

val default_capacity : int
(** 8192 events. *)

val with_span : ?sketch:Sketch.t -> ?cat:string -> string -> (unit -> 'a) -> 'a
(** [with_span ?sketch ?cat name f] is the one way a layer times a
    section.  The span opens before [f] runs, so every span and pool
    batch inside [f] is its child (same thread, or another lane via
    {!with_context}).  When [f] returns or raises, the section records
    its event and observes its duration in [sketch], with its own trace
    and span ids as the exemplar.  Disabled, it is a direct call to
    [f]: the caller still pays for building [name] and the closure. *)

val record :
  ?cat:string ->
  ?trace_id:int ->
  ?span_id:int ->
  ?parent_id:int ->
  name:string ->
  ts_ns:int ->
  dur_ns:int ->
  unit ->
  unit
(** Record a pre-timed event whose ids were allocated ahead of its
    body ([Parallel.Pool]'s batches and tasks).  Ids default to a fresh
    span id parented on the current context. *)

val events : unit -> event list
(** Oldest first. *)

val dropped : unit -> int
val clear : unit -> unit

val set_capacity : int -> unit
(** Resize the ring (drops buffered events). *)

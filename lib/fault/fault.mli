(** Fault handling for the KIT-DPE tree: a typed error channel
    ({!Error}), a deterministic fault-injection registry ({!Inject})
    and the injection-point primitive ({!point}).

    Injection points are named [<layer>.<module>.<site>]
    (e.g. [dpe.db_encryptor.row], [minidb.csvio.row],
    [crypto.ope.encrypt], [mining.dist_matrix.eval], [index.build],
    [parallel.pool.task]) and pass a stable per-call key — row index,
    physical CSV line, plaintext value, matrix cell, point id — so
    armed triggers pick the same victims on every run (DESIGN.md §9).
    [mining.dist_matrix.eval] sits in the one matrix fill and
    [index.build] in the one index build, so both are on the paths mine
    requests run.

    With nothing armed, {!point} costs a single atomic load, the same
    contract as [Obs.is_enabled]. *)

module Error = Error
module Inject = Inject
module Retry = Retry

val enabled : unit -> bool
(** True iff at least one injection point is armed. *)

val point : ?key:int -> string -> unit
(** Declare an injection point.  No-op unless the registry armed this
    name and its trigger fires on [key], in which case it raises
    [Error.E (Injected _)].  [key] should be stable call-site data
    (row index, line number, plaintext) — never a counter — wherever
    the surrounding code runs in parallel. *)

val key_of_string : string -> int
(** A stable {!point} key for string call-site data (a plaintext). *)

val protect : context:string -> (unit -> 'a) -> ('a, Error.t) result
(** Run a thunk, converting any escaping exception through
    [Error.of_exn ~context]. *)

(** One value per sys-thread, with a default for threads that never set
    one.  Storage is per sys-thread, not per domain: the server runs
    its accept, reader and compute threads on domain 0, and a bare
    [Domain.DLS] slot shared by them would let overlapping scopes on two
    threads interleave their save/restores and leave one thread's value
    installed on the other.  Each domain holds a small mutex-guarded
    table keyed by [Thread.id]; pool lane domains run one thread each,
    so their lookups never contend.  {!get} allocates nothing. *)

type 'a t

val make : 'a -> 'a t
(** A slot whose every thread starts at the given default. *)

val get : 'a t -> 'a

val with_value : 'a t -> 'a -> (unit -> 'b) -> 'b
(** Install a value for the thunk's extent; the previous one is restored
    when it returns or raises.  A thread back at the default holds no
    table entry, so finished threads leave nothing behind. *)

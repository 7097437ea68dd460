(* Deliberate DOM01 violations (unguarded captured mutation). *)

type acc = { mutable total : int }

val racy_counter : Parallel.Pool.t -> int -> int
val racy_table : Parallel.Pool.t -> string list -> (string, int) Hashtbl.t
val racy_record : Parallel.Pool.t -> int -> int

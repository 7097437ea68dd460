(** A named collection of {!Table}s. *)

type t

val empty : t
val add_table : t -> Table.t -> t
(** @raise Invalid_argument if a relation with the same name exists. *)

val find : t -> string -> Table.t option
val find_exn : t -> string -> Table.t
(** @raise Not_found *)

val relations : t -> string list
(** Sorted relation names. *)

val tables : t -> Table.t list

val total_rows : t -> int

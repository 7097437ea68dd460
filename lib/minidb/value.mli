(** Runtime values stored in {!Table}s and produced by the {!Executor}.

    A crucial property for the whole reproduction: an {e encrypted} database
    is just another [Minidb] database whose values happen to be ciphertexts
    (OPE integers, DET strings).  The executor therefore runs unchanged on
    plain and encrypted data — exactly the deployment model of the paper. *)

type t =
  | Vint of int
  | Vfloat of float
  | Vstring of string
  | Vnull
[@@deriving show, eq, ord]

type ty = Tint | Tfloat | Tstring [@@deriving show, eq, ord]

val of_const : Sqlir.Ast.const -> t
val to_const : t -> Sqlir.Ast.const option
(** [None] for [Vnull]. *)

val is_null : t -> bool

val compare_sql : t -> t -> int option
(** Three-valued SQL comparison: [None] when either side is null or the
    types are incomparable (int/float compare numerically). *)

val to_string : t -> string

val like_match : pattern:string -> string -> bool
(** SQL LIKE semantics: [%] matches any run, [_] any single character. *)

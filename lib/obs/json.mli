(** Minimal JSON reader for the export layer's own artifacts (metric
    snapshots, [BENCH_PR*.json]) — full RFC 8259 value grammar, no
    third-party dependency.  Numbers are floats; every integer in our
    snapshots is far below 2^53 so round-tripping is exact. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val max_depth : int
(** 512: the deepest array/object nesting {!parse} accepts. *)

val parse : string -> (t, string) result
(** [Error] on malformed input, and on nesting deeper than {!max_depth}
    (["nesting deeper than 512 ..."]), which is rejected after reading
    at most [max_depth + 1] brackets. *)

val member : string -> t -> t option
(** Object field lookup; [None] on non-objects and missing keys. *)

val to_num : t -> float option
val to_str : t -> string option
val to_list : t -> t list option
val to_obj : t -> (string * t) list option
val to_int : t -> int option
(** [Some] only for an integral number inside the native int range:
    [2.7], [1e300] and [2^62] are [None], never truncated or wrapped. *)

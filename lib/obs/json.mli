(** JSON reader and writer: the one codec of the tree.  Every wire
    payload, metric snapshot, trace, bench artifact and lint report is
    built as a {!t} and rendered by {!to_string}; full RFC 8259 value
    grammar, no third-party dependency.

    {!to_string} is the exact inverse of {!parse}:
    [parse (to_string j) = Ok j] for every [j] whose numbers are finite
    and whose nesting is within {!max_depth}.  Numbers are floats,
    written by one rule:
    - an integral value with [|f| < 2^53] as integer digits
      ([1000000000000001], never [1e+15]);
    - any other finite value with the first of [%.15g], [%.16g],
      [%.17g] that reads back equal ([1/3] is [0.3333333333333333]);
    - a non-finite value as [null] (JSON has no nan or infinity).

    Strings escape the quote, the backslash and control characters
    only; bytes [>= 0x80] pass through raw, so any byte string
    round-trips. *)

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

val to_string : t -> string
(** Compact single-line rendering, by the rules above. *)

val int : int -> t
(** [Num (float_of_int i)]. *)

val member : string -> t -> t option
(** Object field lookup; [None] on non-objects and missing keys. *)

val to_num : t -> float option
val to_str : t -> string option
val to_list : t -> t list option
val to_obj : t -> (string * t) list option
val to_int : t -> int option
(** [Some] only for an integral number inside the native int range:
    [2.7], [1e300] and [2^62] are [None], never truncated or wrapped. *)

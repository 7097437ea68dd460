(** Equivalence notions (Definition 2): for a distance measure, the
    characteristic [c] of a single query that encryption must commute with
    ([Enc (c x) = c (Enc x)]). *)

type t =
  | Token_equivalence        (** c = tokens *)
  | Structural_equivalence   (** c = features *)
  | Result_equivalence       (** c = result tuples (needs the database) *)
  | Access_area_equivalence  (** c = access_A for every attribute A *)
[@@deriving show, eq]

val of_measure : Distance.Measure.t -> t
val to_string : t -> string
val characteristic_name : t -> string
(** The name the paper gives [c]: "tokens", "features", "result tuples"
    or "access_A". *)

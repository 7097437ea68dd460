(** Sets of real intervals with open/closed endpoints.

    Access areas over numeric attributes are unions of intervals.  The
    semantics is deliberately {e dense} (real-valued), not integer-valued:
    [x > 5] is the open interval (5, ∞), never rewritten to [[6, ∞)].
    This matters for distance preservation — every emptiness, equality and
    overlap test below reduces to {e order comparisons between endpoint
    values}, which a strictly monotone map (OPE) preserves exactly.  An
    integer rewrite like [c+1] would not survive encryption because OPE
    images have gaps (see DESIGN.md). *)

type bound = { v : float; incl : bool }

type ival = {
  lo : bound option;  (** [None] is -∞ *)
  hi : bound option;  (** [None] is +∞ *)
}

type t
(** A normalized (sorted, disjoint, maximal) union of intervals. *)

val empty : t
val all : t
val of_ival : ival -> t
(** Degenerate or reversed intervals normalize to {!empty}. *)

val point : float -> t
val closed : float -> float -> t
val lower : incl:bool -> float -> t
(** [lower ~incl b] is (-∞, b) or (-∞, b]. *)

val upper : incl:bool -> float -> t
(** [upper ~incl a] is (a, ∞) or [a, ∞). *)

val union : t -> t -> t
val inter : t -> t -> t
val complement : t -> t
val is_empty : t -> bool
val is_all : t -> bool
val equal : t -> t -> bool
val overlaps : t -> t -> bool
(** [not (is_empty (inter a b))].  Without a [nan] endpoint it is
    decided pair by pair, without building the intersection, and
    allocates nothing. *)

val mem : float -> t -> bool
val intervals : t -> ival list
val map_endpoints : (float -> float) -> t -> t
(** Apply a strictly increasing function to every endpoint (what OPE does
    to an access area).  Normalization is preserved. *)

val to_string : t -> string

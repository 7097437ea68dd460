(** Access areas of SQL queries (§IV-B4, after Nguyen et al. [16]).

    The access area of a query [Q] w.r.t. an attribute [A] is the part of
    [A]'s domain that [Q] touches.  We represent it per attribute kind:
    numeric predicates yield interval unions ({!Interval.t}), string
    equality predicates yield finite/cofinite point sets, and constructs
    with no tractable region semantics (LIKE, order on strings, IS NULL)
    yield {e opaque region atoms} whose only supported relations are
    equality and shared-atom overlap.

    Every relation used by the distance (emptiness, equality, overlap) is
    invariant under the DPE scheme of Table I row 4: interval endpoints move
    through the strictly monotone OPE map, points and opaque atoms through
    injective deterministic encryption. *)

type t =
  | Empty       (** the attribute is not accessed by the query *)
  | All         (** accessed without any restriction *)
  | Num of Interval.t
  | Sfinite of string list    (** finite set of points (sorted) *)
  | Scofinite of string list  (** complement of a finite set (sorted) *)
  | Opaque of string list     (** union of opaque region atoms (sorted) *)

val canonical : t -> t
(** The normal form that {!equal} and {!overlaps} compare: an empty or
    full region becomes {!Empty} or {!All}, and each point or atom list
    is sorted without duplicates.  A canonical argument is returned
    itself, without allocating. *)

val equal : t -> t -> bool
val overlaps : t -> t -> bool
(** Conservative where regions are opaque: two opaque regions overlap iff
    they share an atom.  {!equal} and {!overlaps} walk the two
    {!canonical} forms and allocate nothing on canonical arguments. *)

val union : t -> t -> t
val inter : t -> t -> t
val complement : t -> t
val to_string : t -> string

val of_query : Sqlir.Ast.query -> (string * t) list
(** The access area of every attribute the query mentions, keyed by the
    attribute's printed form.  Attributes that appear in the query but are
    not constrained in WHERE map to {!All}. *)

val delta : x:float -> t -> t -> float
(** Definition 5's per-attribute distance: [0] if the areas are equal, [x]
    if they overlap, [1] otherwise. *)

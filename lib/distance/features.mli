(** Per-query feature precomputation for pairwise distance matrices.

    The per-pair measures re-derive every artifact from scratch —
    printing, lexing, SnipSuggest feature extraction, clause component
    sets, access areas — which makes an [n]-query matrix cost O(n²)
    tokenizations.  A feature table is built {e once per matrix}
    (one tokenization per distinct query, in parallel across the pool),
    with all symbols interned into dense small ints, and pairs are then
    evaluated from the table.

    {b Bit-identity.}  Every pair evaluator returns the exact float the
    corresponding per-pair measure returns:

    - interning is injective, so Jaccard intersection/union
      cardinalities — plain ints — are unchanged and the final division
      is the same ({!Jaccard.distance_sorted_ints});
    - the bit-parallel edit kernel computes the same integer distance
      as the seed dynamic program, so the normalized float is the same
      division;
    - clause and access distances are computed by the seed's own
      shared expressions ({!D_clause.combine},
      {!D_access.distance_of_areas}).

    Verified by the property tests ([test/test_distance.ml]) with
    [Mining.Dist_matrix.max_abs_diff = 0.0] against the per-pair
    matrices for every measure and pool size.

    {b Distinct queries.}  Queries with the same printed text and the
    same AST share one record, built once; the AST check matters because
    [%g] printing can give two float constants one text.  Equal records
    give bit-equal distances, because every evaluator is a pure
    function of its two records.

    {b Observability.}  [kitdpe.distance.features.builds] counts record
    builds, one per distinct query, and [kitdpe.distance.features.reuse]
    counts record reuses, 2 per pair evaluation: an [n]-query matrix
    with [d] measure classes ({!classes}), [m] of them with two or more
    members, reports [builds] = the number of distinct queries and
    [reuse = 2 (d (d - 1) / 2 + m)].

    {b Faults.}  Each query, repeated or not, passes the
    ["distance.features.build"] injection point keyed by its index,
    inside the printing batch. *)

type t

val length : t -> int

val build_r :
  ?pool:Parallel.Pool.t
  -> Sqlir.Ast.query array
  -> (t, Fault.Error.t list) result
(** Build the table, one record per distinct query, across [pool] (default
    {!Parallel.Pool.global}[ ()]).  Pure per query, so the table is
    identical for every pool size.  Crash-contained: two
    [Parallel.Pool.map_range_r ~label:"features.build"] batches over
    every query, one printing it and one building the record of each
    first occurrence, so per-query failures (including injected faults
    and deadline skips) are collected as
    [Task_failed { label = "features.build"; index; _ }] instead of
    raised.  A record that fails to build fails every query that shares
    it. *)

val build : ?pool:Parallel.Pool.t -> Sqlir.Ast.query array -> t
(** {!build_r}, raising [Fault.Error.E] of the first error. *)

val sub : t -> int array -> t
(** [sub t ids] is the table of queries [ids]: its point [k] is query
    [ids.(k)] of [t], with the same interned ids and alphabet, so every
    evaluator returns the same float as on [t]. *)

(** {2 Class maps}

    A measure reads one part of each record: the token set, the fused
    token sequence, the structure set, the three clause sets, or the
    access areas.  Queries whose parts are equal are one class of that
    measure: every distance to them is bit-equal, so a matrix or an
    index needs one representative per class. *)

type key =
  | Token_set  (** {!token} *)
  | Edit_tokens  (** {!edit} *)
  | Structure_set  (** {!structure} *)
  | Clause_sets  (** {!clause} *)
  | Areas  (** {!access} *)

type classes = {
  class_of : int array;  (** the class of each query *)
  reps : int array;
      (** the smallest member of each class; classes are numbered by
          it, so [reps] ascends *)
  members : int array array;  (** each class's queries, ascending *)
}

val classes : t -> key -> classes
(** The queries grouped on exactly what the [key]'s evaluator reads. *)

(** {2 Pair evaluators}

    [f t i j] is the distance of queries [i] and [j]; each is
    bit-identical to the corresponding per-pair measure. *)

val token : t -> int -> int -> float
(** = [D_token.distance_q]. *)

val structure : t -> int -> int -> float
(** = [D_structure.distance]. *)

val clause : t -> int -> int -> float
(** = [D_clause.distance], under [D_clause.default_weights]. *)

val access : x:float -> t -> int -> int -> float
(** = [D_access.distance ~x].
    @raise Invalid_argument unless [0 < x < 1]. *)

val edit : t -> int -> int -> float
(** = [D_edit.distance_q], via the bit-parallel kernel.  Staged:
    [edit t i] builds query [i]'s {!D_edit.myers} pattern once, for
    every [j]; the table stores no patterns. *)

val edit_distance_int : t -> int -> int -> int
(** The raw (unnormalized) token-level Levenshtein distance, staged. *)

val edit_len : t -> int -> int
(** Length of query [i]'s fused token sequence — the normalizer of
    {!edit} is [max (edit_len i) (edit_len j)].  The BK-tree
    ([Index.Bk_tree]) uses it to convert a normalized radius into a
    sound integer Levenshtein bound per subtree. *)

(** {2 Interned sets}

    Query [i]'s sorted, duplicate-free set as the Jaccard evaluators
    read it: the table's own array, not to be mutated. *)

val token_set : t -> int -> int array
val structure_set : t -> int -> int array

val clause_projection : t -> int -> int array
(** The projection component of {!clause}. *)

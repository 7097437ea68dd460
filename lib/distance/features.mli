(** Per-query features: the one implementation of the token,
    structure, clause, access and edit measures.

    Each measure is a set distance over a per-query characteristic
    (the paper's Definition 2): the token set, the fused token
    sequence, the SnipSuggest feature set, the three clause component
    sets, or the access areas.  A table holds that record for every
    query, built {e once} (one tokenization per distinct query, in
    parallel across the pool), with all symbols interned into dense
    small ints, and pairs are evaluated from the records.  A matrix
    ({!Measure.matrix_r}), an index ([Index.Space]) and a single pair
    ({!Measure.compute}, through {!of_pair}) all read a table.

    {b Interning.}  Interning is injective, so Jaccard intersection and
    union cardinalities — plain ints — are those of the original sets,
    and the edit kernel's integer distance is that of the original
    token sequences: a distance does not depend on the ids, hence not
    on which other queries share the table.  The tests check every
    evaluator against per-pair definitions that share nothing across
    pairs ([bench/reference]), with [Mining.Dist_matrix.max_abs_diff =
    0.0] for every measure and pool size.

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

val of_pair : key -> Sqlir.Ast.query -> Sqlir.Ast.query -> t
(** The two-query table of queries 0 and 1 for the [key]'s evaluator
    only: the records hold just the part that evaluator reads, so a
    structure, clause or access pair is neither printed nor lexed.
    Built in the calling thread, with no pool batch and no injection
    point; it counts two record builds.  The other evaluators must not
    be applied to it. *)

(** {2 Pair evaluators}

    [f t i j] is the distance of queries [i] and [j]. *)

val token : t -> int -> int -> float
(** Jaccard distance of the token sets ({!D_token.tokens}). *)

val structure : t -> int -> int -> float
(** Jaccard distance of the SnipSuggest feature sets
    ({!Feature.of_query}). *)

val clause : t -> int -> int -> float
(** {!D_clause.combine} of the Jaccard distances of the three clause
    component sets. *)

val access : x:float -> t -> int -> int -> float
(** {!D_access.distance_of_areas} of the two access-area maps.
    @raise Invalid_argument unless [0 < x < 1]. *)

val edit : t -> int -> int -> float
(** Normalized token-level Levenshtein distance (see {!D_edit}), via
    the bit-parallel kernel.  Staged: [edit t i] builds query [i]'s
    {!D_edit.myers} pattern once, for every [j]; the table stores no
    patterns. *)

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

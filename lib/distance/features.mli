(** Per-query features: the one implementation of the token,
    structure, clause, access and edit measures.

    Each measure is a set distance over one per-query characteristic
    c(Q) (the paper's Definition 2, Table I): the token set, the fused
    token sequence, the SnipSuggest feature set, the three clause
    component sets, or the access areas.  That characteristic is the
    {e part} a measure reads, named by a {!key}, and
    {!Measure.key_of} is the one place where a measure decides its key.
    A table holds one key's part per query and records the key; reading
    another key's part is an [Invariant] error.

    A table is built in two halves: {!build_r} prints every query and
    finds the queries that share a record, and {!table_r} builds one
    key's part for the first occurrence of each distinct query, across
    the pool, then interns its symbols into dense small ints in query
    order.  A matrix ({!Measure.matrix_r}), an index ([Index.Space]) and
    session DTW read a table; a single pair ({!Measure.compute}) goes
    through {!distance}, with the same per-query builder.

    {b Interning.}  Each key has its own interner, so the ids do not
    depend on which other parts were built.  Interning is injective, so
    Jaccard intersection and union cardinalities are those of the
    original sets, and the edit kernel's integer distance is that of
    the original token sequences: a distance does not depend on the
    ids, hence not on which other queries share the table.  The tests
    check the evaluator against per-pair definitions that share nothing
    across pairs ([bench/reference]), with
    [Mining.Dist_matrix.max_abs_diff = 0.0] for every measure and pool
    size.

    {b Access areas.}  An {!Areas} part interns attribute names, and each
    attribute's areas under structural equality, so a query's part is
    an ascending array of (attribute, area) ids and the class map is
    that of the area lists.  Each attribute of a table has a code table
    over its [k] distinct areas (equal, overlapping or disjoint, from
    their {!Access_area.canonical} forms), plus each area's code against
    [Empty] in both argument orders: [k² + 2k] bytes, with [k] at most
    the number of classes ({!classes}) that access the attribute, each
    code computed on its first read.  An evaluation merges two id arrays
    and counts codes; it allocates only its result.

    {b Distinct queries.}  Queries with the same printed text and the
    same AST share one record; the AST check matters because [%g]
    printing can give two float constants one text.  Equal records give
    bit-equal distances, because the evaluator is a pure function of
    its two records.

    {b Observability.}  [kitdpe.distance.features.builds] counts record
    builds, one per distinct query of a {!table_r}, and
    [kitdpe.distance.features.reuse] counts record reuses, 2 per pair
    evaluation: an [n]-query matrix with [d] classes ({!classes}), [m]
    of them with two or more members, reports [builds] = the number of
    distinct queries and [reuse = 2 (d (d - 1) / 2 + m)].

    {b Faults.}  Each query, repeated or not, passes the
    ["distance.features.build"] injection point keyed by its index,
    inside the printing batch of {!build_r}. *)

type t
(** A printed log: every query's text, and which queries share a
    record.  It holds no part. *)

val build_r :
  ?pool:Parallel.Pool.t -> Sqlir.Ast.query array -> (t, Fault.Error.t list) result
(** Print every query across [pool] (default
    {!Parallel.Pool.global}[ ()]) and find the first occurrence of each
    distinct one.  Crash-contained: one
    [Parallel.Pool.map_range_r ~label:"features.build"] batch, so
    per-query failures (including injected faults and deadline skips)
    are collected as [Task_failed { label = "features.build"; index; _ }]
    instead of raised. *)

val build : ?pool:Parallel.Pool.t -> Sqlir.Ast.query array -> t
(** {!build_r}, raising [Fault.Error.E] of the first error. *)

(** {2 Keyed tables} *)

type key =
  | Token_set  (** the token set *)
  | Edit_tokens  (** the fused token sequence *)
  | Structure_set  (** the SnipSuggest feature set *)
  | Clause_sets  (** the projection, group-by and selection sets *)
  | Areas  (** the access areas *)

type table
(** One key's part for every query of a log. *)

val table_r :
  ?pool:Parallel.Pool.t -> key -> t -> (table, Fault.Error.t list) result
(** The [key]'s part of every query: one
    [Parallel.Pool.map_range_r ~label:"features.build"] batch across
    [pool] (default {!Parallel.Pool.global}[ ()]) builds the part of
    each first occurrence, then the parts are interned in query order.
    Pure per query, so the table is identical for every pool size.  A
    part that fails to build fails every query that shares it, each
    under its own index. *)

val of_areas : (string * Access_area.t) list array -> table
(** The {!Areas} table of the given area lists, one per query, each
    naming an attribute at most once (as {!Access_area.of_query} does):
    the part {!table_r} builds from queries, for a caller that holds
    areas.  It runs in the calling thread and counts no build. *)

val key : table -> key

val length : table -> int

val sub : table -> int array -> table
(** [sub t ids] is the table of queries [ids]: its point [k] is query
    [ids.(k)] of [t], with the same key, interned ids and alphabet, so
    the evaluator returns the same float as on [t]. *)

type classes = {
  class_of : int array;  (** the class of each query *)
  reps : int array;
      (** the smallest member of each class; classes are numbered by
          it, so [reps] ascends *)
  members : int array array;  (** each class's queries, ascending *)
}

val classes : table -> classes
(** The queries grouped on their part.  Every distance to two members
    of a class is bit-equal, so a matrix or an index needs one
    representative per class. *)

(** {2 Reading a table} *)

val eval : x:float -> table -> int -> int -> float
(** [eval ~x t i j] is the distance of queries [i] and [j] under the
    table's key: the Jaccard distance of the sets (token, structure),
    {!D_clause.combine} of the three clause Jaccard distances, the
    access-area distance of Definition 5 with overlap weight [x]
    ({!D_access}), or the normalized token-level Levenshtein distance
    ({!D_edit}).  Staged:
    [eval ~x t i] reads query [i]'s part once, and on an edit table
    builds its {!D_edit.myers} pattern, for every [j].
    @raise Invalid_argument on an access table unless [0 < x < 1]. *)

val distance : x:float -> key -> Sqlir.Ast.query -> Sqlir.Ast.query -> float
(** {!eval} on the two-query table of one pair, built in the calling
    thread with the per-query builder of {!table_r}: no pool batch and
    no injection point, two record builds.  The queries are printed
    only for the token keys. *)

val edit_distance_int : table -> int -> int -> int
(** The raw (unnormalized) token-level Levenshtein distance, staged.
    @raise Fault.Error.E [(Invariant _)] unless the key is
    {!Edit_tokens}. *)

val len : table -> int -> int
(** Length of query [i]'s fused token sequence — the normalizer of the
    edit distance is [max (len i) (len j)].  The BK-tree
    ([Index.Bk_tree]) uses it to convert a normalized radius into a
    sound integer Levenshtein bound per subtree.
    @raise Fault.Error.E [(Invariant _)] unless the key is
    {!Edit_tokens}. *)

val set : table -> int -> int array
(** Query [i]'s sorted, duplicate-free interned set as the Jaccard
    evaluation reads it: the token set, the structure feature set, or
    the clause projection set.  The table's own array, not to be
    mutated.
    @raise Fault.Error.E [(Invariant _)] on an edit or access table. *)

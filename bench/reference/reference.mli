(** The five feature measures defined per pair, on query text or ASTs,
    and the first versions of the lexer and of the DBSCAN core, which the
    tests compare the library's against.

    Each function derives everything it reads from its two arguments:
    it prints, lexes and extracts features for that pair alone, with no
    table, interning or class map.  These are the definitions the
    measures were first written as.  The library computes the same
    floats from a {!Distance.Features} table; the property tests check
    it against these with [max_abs_diff = 0.0], and the bench's matrix
    rows time these as their baseline. *)

(** {2 Token (Definition 3)} *)

val token_of_text : string -> string -> float
(** Jaccard distance of the two normalized token sets
    ({!Distance.D_token.tokens}).
    @raise Sqlir.Lexer.Lex_error on garbage. *)

val token : Sqlir.Ast.query -> Sqlir.Ast.query -> float
(** {!token_of_text} of the canonical printings. *)

(** {2 Structure (§IV-B2)} *)

val structure : Sqlir.Ast.query -> Sqlir.Ast.query -> float
(** Jaccard distance of the SnipSuggest feature sets
    ({!Distance.Feature.of_query}). *)

(** {2 Clause (Aligon et al.)} *)

val clause : Sqlir.Ast.query -> Sqlir.Ast.query -> float
(** The weighted average of the Jaccard distances of the projection,
    group-by and selection sets, under [Distance.D_clause]'s weights. *)

(** {2 Access area (Definition 5)} *)

val access_per_attribute :
  ?x:float -> Sqlir.Ast.query -> Sqlir.Ast.query -> (string * float) list
(** The δ of every attribute accessed by either query, keyed by
    attribute, ascending.  [x] defaults to
    [Distance.D_access.default_x].
    @raise Invalid_argument unless [0 < x < 1]. *)

val access_of_areas :
  ?x:float -> (string * Distance.Access_area.t) list
  -> (string * Distance.Access_area.t) list -> float
(** The mean of the δ of every attribute of either area list (an
    attribute missing from a list has area [Empty]), summed in
    ascending value order; 0 when neither list names an attribute.
    @raise Invalid_argument unless [0 < x < 1]. *)

val access : ?x:float -> Sqlir.Ast.query -> Sqlir.Ast.query -> float
(** {!access_of_areas} of the two queries'
    [Distance.Access_area.of_query] lists.
    @raise Invalid_argument unless [0 < x < 1]. *)

(** {2 Edit (token-level Levenshtein)} *)

val levenshtein : ('a -> 'a -> bool) -> 'a array -> 'a array -> int
(** Classic one-row dynamic program under a caller-supplied equality:
    the reference for [Distance.D_edit.myers]. *)

val char_levenshtein : string -> string -> int
(** Character-level Levenshtein, which no token-wise encryption
    preserves (ciphertext tokens have other lengths). *)

val token_edits : string -> string -> int
(** Edit distance of the fused token sequences of two query strings.
    @raise Sqlir.Lexer.Lex_error on garbage. *)

val edit : Sqlir.Ast.query -> Sqlir.Ast.query -> float
(** {!token_edits} of the canonical printings, divided by the longer
    token sequence; 0 when both are empty. *)

(** {2 Dispatch} *)

val compute :
  Distance.Measure.ctx -> Distance.Measure.t -> Sqlir.Ast.query
  -> Sqlir.Ast.query -> float
(** The measure's per-pair definition; [Result] is
    [Distance.D_result.distance] on [ctx]'s database.
    @raise Invalid_argument for [Result] without a database. *)

val matrix :
  Distance.Measure.ctx -> Distance.Measure.t -> Sqlir.Ast.query list
  -> Mining.Dist_matrix.t
(** {!compute} on every pair, filled by [Mining.Dist_matrix.of_fun]. *)

val session_matrix : Sqlir.Ast.query list list -> Mining.Dist_matrix.t
(** Normalized DTW ([Mining.Dtw.normalized]) between every two
    sessions, with {!structure} as the per-query cost. *)

(** {2 Lexer} *)

val tokenize : string -> Sqlir.Lexer.token list
(** The lexer as first written: a keyword is found by uppercasing every
    word and scanning the keyword list, every symbol and string literal
    is copied out byte by byte.  {!Sqlir.Lexer.tokenize} must return the
    same tokens, or raise the same [Lex_error]. *)

(** {2 DBSCAN} *)

val dbscan_expand :
  n:int -> min_pts:int -> range:(int -> int list) -> int array
(** The DBSCAN core with a [Queue] work list and [List.length] core
    tests, uncounted: [Mining.Dbscan.run_index] must give the same
    labels and call [range] in the same order. *)

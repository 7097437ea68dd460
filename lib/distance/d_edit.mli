(** Token-level Levenshtein (edit) query-string distance.

    The paper's Example 2 names the Levenshtein distance as an alternative
    query-string measure but does not develop it; we add it as an extension
    and prove (in the test suite) that the very same global-DET token map
    that preserves the Jaccard token distance also preserves this one:
    encryption maps the token {e sequence} element-wise and injectively, so
    every edit script carries over 1:1.

    Character-level Levenshtein, by contrast, is {e not} preservable by any
    token-wise scheme — ciphertext tokens have different lengths than their
    plaintexts — which is exactly why the measure must be defined on token
    sequences.  [char_distance] is provided for that demonstration.

    Two kernels compute the same integer distance (DESIGN.md §10):
    the classic one-row DP ({!levenshtein}) and the Myers bit-parallel
    algorithm over interned symbols ({!myers_with_peq}, O(nm/w) with
    w = 62 payload bits per word).  The feature-table path
    ({!Features}) uses Myers with per-query precomputed pattern
    bitvectors; the property tests check it against the DP. *)

val levenshtein : ('a -> 'a -> bool) -> 'a array -> 'a array -> int
(** Classic one-row DP under a caller-supplied equality. *)

val myers_peq : alphabet:int -> int array -> int array
(** Pattern preprocessing for {!myers_with_peq}: the per-symbol position
    bitmasks, one word per 62-symbol block, laid out block-major
    ([peq.(block * alphabet + sym)]).  Build once per query and reuse
    across a whole matrix row ({!Features}). *)

val myers_with_peq : alphabet:int -> m:int -> peq:int array -> int array -> int
(** [myers_with_peq ~alphabet ~m ~peq text] is the Levenshtein
    distance of [pat] and [text], where [peq] is
    [myers_peq ~alphabet pat] and [m = Array.length pat].  Symbols
    must lie in [\[0, alphabet)]. *)

val char_distance : string -> string -> int
(** Plain character-level Levenshtein (for the negative demonstration).
    Operates directly on the strings — no per-call [char array]. *)

val token_distance : string -> string -> int
(** Edit distance between the fused token sequences of two query strings
    (insertions, deletions, substitutions of whole tokens).
    @raise Sqlir.Lexer.Lex_error on garbage. *)

val distance : string -> string -> float
(** Normalized token edit distance in [0,1]:
    [token_distance / max(len_a, len_b)]; [0] when both are empty. *)

val distance_q : Sqlir.Ast.query -> Sqlir.Ast.query -> float

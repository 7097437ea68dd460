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
    algorithm over interned symbols ({!myers}, O(nm/w) with
    w = 62 payload bits per word).  The feature-table path
    ({!Features}) uses Myers, building a query's pattern bitvectors
    once per matrix row or index query; the property tests check it
    against the DP. *)

val levenshtein : ('a -> 'a -> bool) -> 'a array -> 'a array -> int
(** Classic one-row DP under a caller-supplied equality. *)

val myers : alphabet:int -> int array -> int array -> int
(** [myers ~alphabet pat text] is the Levenshtein distance of [pat] and
    [text].  Staged: [myers ~alphabet pat] builds the pattern's
    per-symbol position bitmasks ([alphabet] words per 62-symbol block)
    once, for every text.  Symbols must lie in [\[0, alphabet)]. *)

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

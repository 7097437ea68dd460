(** Token-level Levenshtein (edit) query-string distance.

    The paper's Example 2 names the Levenshtein distance as an alternative
    query-string measure but does not develop it; we add it as an extension
    and prove (in the test suite) that the very same global-DET token map
    that preserves the Jaccard token distance also preserves this one:
    encryption maps the token {e sequence} element-wise and injectively, so
    every edit script carries over 1:1.  Character-level Levenshtein, by
    contrast, is {e not} preserved by any token-wise scheme, because
    ciphertext tokens have other lengths than their plaintexts.

    The distance of two queries is the Levenshtein distance of their
    fused token sequences ({!D_token.fuse}) divided by the longer
    length, 0 when both are empty.  {!Features.eval} evaluates it with
    the Myers bit-parallel kernel below over interned symbols
    (O(nm/w), w = 62 payload bits per word), building a query's
    pattern bitvectors once per matrix row or index query; the property
    tests check the kernel against the classic dynamic program
    (DESIGN.md §10). *)

val myers : alphabet:int -> int array -> int array -> int
(** [myers ~alphabet pat text] is the Levenshtein distance of [pat] and
    [text].  Staged: [myers ~alphabet pat] builds the pattern's
    per-symbol position bitmasks ([alphabet] words per 62-symbol block)
    once, for every text.  A pattern of at most 62 symbols fits one
    word, and then a text allocates nothing.  Symbols must lie in
    [\[0, alphabet)]. *)

(** Token-based query-string distance (Definition 3): a query is viewed
    as the {e set} of its lexical tokens, and the distance is the Jaccard
    distance of the two token sets.  {!Features.eval} evaluates it from
    these tokens. *)

val fuse : Sqlir.Lexer.token list -> string list
(** Lexemes with [LIMIT n] fused into one structural token — necessary for
    token equivalence, because the LIMIT numeral stays plaintext under
    encryption while equal-looking attribute constants do not. *)

val tokens : string -> string list
(** Normalized token set of a query string (keywords uppercased, string
    literals re-quoted, LIMIT fused).
    @raise Sqlir.Lexer.Lex_error on garbage. *)

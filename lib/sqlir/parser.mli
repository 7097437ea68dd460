(** Recursive-descent parser for the SQL subset.

    Grammar (informally):
    {v
    query    ::= SELECT [DISTINCT] items FROM rel ("," rel)*
                 (JOIN rel ON attr cmp attr)*
                 [WHERE pred] [GROUP BY attrs] [HAVING pred]
                 [ORDER BY attr [ASC|DESC] ("," ...)*] [LIMIT int] [";"]
    items    ::= "*" | item ("," item)*
    item     ::= attr | agg "(" ("*" | attr) ")"
    pred     ::= conj (OR conj)*
    conj     ::= unit (AND unit)*
    unit     ::= [NOT] atom | "(" pred ")"
    atom     ::= attr cmp (const|attr) | const cmp attr
               | attr [NOT] BETWEEN const AND const
               | attr [NOT] IN "(" const ("," const)* ")"
               | attr [NOT] LIKE string | attr IS [NOT] NULL
    v} *)

exception Parse_error of string

val max_depth : int
(** Deepest accepted predicate nesting (parentheses plus [NOT]s), 512:
    deeper input is a {!Parse_error}, so parsing cost stays linear in
    the input however it is nested. *)

val parse : string -> Ast.query
(** @raise Parse_error (or {!Lexer.Lex_error}) on invalid input. *)

val parse_result : string -> (Ast.query, string) result
(** Non-raising wrapper; the error string includes lexer errors. *)

(** Canonical SQL text for {!Ast.query}.

    [Parser.parse (to_string q)] is structurally equal to [q] for every
    well-formed query — the round-trip property the test suite checks —
    which makes the printed form a faithful wire format for shipping
    encrypted logs to the service provider. *)

val const_to_string : Ast.const -> string
val attr_to_string : Ast.attr -> string
val cmp_to_string : Ast.cmp -> string
val pred_to_string : Ast.pred -> string
val to_string : Ast.query -> string

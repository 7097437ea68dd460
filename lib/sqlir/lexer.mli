(** Hand-written lexer for the SQL subset.

    Also serves as the tokenizer behind the token-based query-string
    distance (Definition 3): [tokens] of a query string is the set of
    lexemes this lexer produces. *)

type token =
  | Kw of string        (** keyword, uppercased: [Kw "SELECT"] *)
  | Ident of string     (** identifier, case preserved *)
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string   (** contents without the quotes *)
  | Sym of string       (** punctuation / operators: [","], ["("], ["<="], … *)

val token_to_string : token -> string
(** Lexeme as it would appear in SQL text (strings re-quoted). *)

exception Lex_error of string * int
(** [(message, byte offset)] *)

val tokenize : string -> token list
(** @raise Lex_error on an unrecognizable character, an unterminated
    string or an integer literal outside the native [int] range. *)

val is_keyword : string -> bool
(** Case-insensitive membership in the reserved-word list. *)

(* The raw lexeme stream is post-processed in one way: a LIMIT keyword is
   fused with its numeral into a single structural token ("LIMIT 20").
   Without this, token equivalence is unachievable: the numeral of LIMIT is
   part of the query's structure and stays plaintext under encryption,
   while an equal-looking constant of some attribute is encrypted — so a
   token shared between "LIMIT 20" and "magnitude < 20" would survive on
   the plaintext side but not on the ciphertext side. *)
let fuse toks =
  let rec go = function
    | [] -> []
    | Sqlir.Lexer.Kw "LIMIT" :: Sqlir.Lexer.Int_lit n :: rest ->
      ("LIMIT " ^ string_of_int n) :: go rest
    | t :: rest -> Sqlir.Lexer.token_to_string t :: go rest
  in
  go toks

let tokens s =
  Sqlir.Lexer.tokenize s
  |> fuse
  |> List.sort_uniq String.compare

type token =
  | Kw of string
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string
  | Sym of string

let keywords =
  [ "SELECT"; "DISTINCT"; "FROM"; "WHERE"; "JOIN"; "INNER"; "LEFT"; "OUTER";
    "ON"; "GROUP";
    "BY"; "HAVING"; "ORDER"; "ASC"; "DESC"; "LIMIT"; "AND"; "OR"; "NOT";
    "BETWEEN"; "IN"; "LIKE"; "IS"; "NULL"; "AS";
    "COUNT"; "SUM"; "AVG"; "MIN"; "MAX" ]

(* every ciphertext identifier is longer than the longest keyword, so a
   length check rejects it before any uppercasing; a hit returns the
   table's own string *)
let keyword_table = Hashtbl.of_seq (Seq.map (fun k -> (k, k)) (List.to_seq keywords))

let max_keyword_len = List.fold_left (fun m k -> max m (String.length k)) 0 keywords

let keyword word =
  if String.length word > max_keyword_len then None
  else Hashtbl.find_opt keyword_table (String.uppercase_ascii word)

let is_keyword s = keyword s <> None

let token_to_string = function
  | Kw k -> k
  | Ident s -> s
  | Int_lit n -> string_of_int n
  | Float_lit f -> Printf.sprintf "%g" f
  | Str_lit s ->
    let escaped = String.concat "''" (String.split_on_char '\'' s) in
    "'" ^ escaped ^ "'"
  | Sym s -> s

exception Lex_error of string * int

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize input =
  let n = String.length input in
  let rec go i acc =
    if i >= n then List.rev acc
    else begin
      let c = input.[i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then go (i + 1) acc
      else if is_ident_start c then begin
        let j = ref i in
        while !j < n && is_ident_char input.[!j] do incr j done;
        let word = String.sub input i (!j - i) in
        let tok = match keyword word with Some k -> Kw k | None -> Ident word in
        go !j (tok :: acc)
      end
      else if is_digit c
              || (c = '-' && i + 1 < n && is_digit input.[i + 1]
                  && (match acc with
                      | (Int_lit _ | Float_lit _ | Ident _ | Str_lit _) :: _ -> false
                      | Sym ")" :: _ -> false
                      | _ -> true))
      then begin
        let j = ref i in
        if input.[!j] = '-' then incr j;
        while !j < n && is_digit input.[!j] do incr j done;
        let is_float =
          !j + 1 < n && input.[!j] = '.' && is_digit input.[!j + 1]
        in
        if is_float then begin
          incr j;
          while !j < n && is_digit input.[!j] do incr j done;
          go !j (Float_lit (float_of_string (String.sub input i (!j - i))) :: acc)
        end
        else
          match int_of_string_opt (String.sub input i (!j - i)) with
          | Some v -> go !j (Int_lit v :: acc)
          | None -> raise (Lex_error ("integer literal out of range", i))
      end
      else if c = '\'' then begin
        (* string literal; '' escapes a quote, and only a literal that
           holds one is copied piecewise *)
        let close j =
          match String.index_from_opt input j '\'' with
          | Some k -> k
          | None -> raise (Lex_error ("unterminated string literal", i))
        in
        let doubled k = k + 1 < n && input.[k + 1] = '\'' in
        let k = close (i + 1) in
        if not (doubled k) then
          go (k + 1) (Str_lit (String.sub input (i + 1) (k - i - 1)) :: acc)
        else begin
          let buf = Buffer.create 16 in
          let rec scan j k =
            Buffer.add_substring buf input j (k - j);
            if doubled k then begin
              Buffer.add_char buf '\'';
              scan (k + 2) (close (k + 2))
            end
            else k + 1
          in
          let j = scan (i + 1) k in
          go j (Str_lit (Buffer.contents buf) :: acc)
        end
      end
      else begin
        let next = if i + 1 < n then input.[i + 1] else ' ' in
        match c, next with
        | '<', '=' -> go (i + 2) (Sym "<=" :: acc)
        | '>', '=' -> go (i + 2) (Sym ">=" :: acc)
        | '<', '>' | '!', '=' -> go (i + 2) (Sym "<>" :: acc)
        | _ ->
          let sym =
            match c with
            | ',' -> "," | '(' -> "(" | ')' -> ")" | '.' -> "." | '*' -> "*"
            | '=' -> "=" | '<' -> "<" | '>' -> ">" | ';' -> ";" | '-' -> "-"
            | '+' -> "+" | '/' -> "/"
            | _ -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, i))
          in
          go (i + 1) (Sym sym :: acc)
      end
    end
  in
  go 0 []

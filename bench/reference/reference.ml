module M = Distance.Measure

let jaccard_strings a b = Distance.Jaccard.distance ~compare:String.compare a b

(* ---- token ---- *)

let token_of_text a b =
  jaccard_strings (Distance.D_token.tokens a) (Distance.D_token.tokens b)

let token a b = token_of_text (Sqlir.Printer.to_string a) (Sqlir.Printer.to_string b)

(* ---- structure ---- *)

let structure a b =
  Distance.Jaccard.distance ~compare:Distance.Feature.compare
    (Distance.Feature.of_query a) (Distance.Feature.of_query b)

(* ---- clause ---- *)

let clause q1 q2 =
  let module C = Distance.D_clause in
  let j f = jaccard_strings (f q1) (f q2) in
  ((C.w_projection *. j C.projection_set)
   +. (C.w_group_by *. j C.group_by_set)
   +. (C.w_selection *. j C.selection_set))
  /. (C.w_projection +. C.w_group_by +. C.w_selection)

(* ---- access area ---- *)

let deltas_of_areas ?(x = Distance.D_access.default_x) a1 a2 =
  if not (x > 0.0 && x < 1.0) then invalid_arg "D_access: x must be in (0,1)";
  let area areas key =
    Option.value (List.assoc_opt key areas) ~default:Distance.Access_area.Empty
  in
  List.sort_uniq String.compare (List.map fst a1 @ List.map fst a2)
  |> List.map (fun key ->
         (key, Distance.Access_area.delta ~x (area a1 key) (area a2 key)))

let access_per_attribute ?x q1 q2 =
  deltas_of_areas ?x (Distance.Access_area.of_query q1)
    (Distance.Access_area.of_query q2)

(* summed in ascending value order: attribute names sort differently
   before and after encryption, and float addition is not
   associative *)
let access_of_areas ?x a1 a2 =
  match deltas_of_areas ?x a1 a2 with
  | [] -> 0.0
  | deltas ->
    let values = List.sort Float.compare (List.map snd deltas) in
    List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)

let access ?x q1 q2 =
  access_of_areas ?x (Distance.Access_area.of_query q1)
    (Distance.Access_area.of_query q2)

(* ---- edit ---- *)

let levenshtein (type a) (equal : a -> a -> bool) (a : a array) (b : a array) =
  let n = Array.length a and m = Array.length b in
  if n = 0 then m
  else if m = 0 then n
  else begin
    let prev = Array.init (m + 1) Fun.id in
    let cur = Array.make (m + 1) 0 in
    for i = 1 to n do
      cur.(0) <- i;
      for j = 1 to m do
        let cost = if equal a.(i - 1) b.(j - 1) then 0 else 1 in
        cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit cur 0 prev 0 (m + 1)
    done;
    prev.(m)
  end

let char_levenshtein a b =
  levenshtein Char.equal
    (Array.init (String.length a) (String.get a))
    (Array.init (String.length b) (String.get b))

let token_seq s = Array.of_list (Distance.D_token.fuse (Sqlir.Lexer.tokenize s))

let token_edits a b = levenshtein String.equal (token_seq a) (token_seq b)

let edit a b =
  let ta = token_seq (Sqlir.Printer.to_string a)
  and tb = token_seq (Sqlir.Printer.to_string b) in
  let n = max (Array.length ta) (Array.length tb) in
  if n = 0 then 0.0
  else float_of_int (levenshtein String.equal ta tb) /. float_of_int n

(* ---- dispatch ---- *)

let compute (ctx : M.ctx) measure q1 q2 =
  match measure with
  | M.Token -> token q1 q2
  | M.Structure -> structure q1 q2
  | M.Clause -> clause q1 q2
  | M.Access -> access ~x:ctx.M.x q1 q2
  | M.Edit -> edit q1 q2
  | M.Result ->
    (match ctx.M.db with
     | Some db -> Distance.D_result.distance db q1 q2
     | None -> invalid_arg "Reference.compute: the result distance needs a database")

let matrix ctx measure log =
  let qs = Array.of_list log in
  Mining.Dist_matrix.of_fun (Array.length qs) (fun i j ->
      compute ctx measure qs.(i) qs.(j))

let session_matrix sessions =
  let arr = Array.of_list (List.map Array.of_list sessions) in
  Mining.Dist_matrix.of_fun (Array.length arr) (fun i j ->
      Mining.Dtw.normalized ~cost:structure arr.(i) arr.(j))

(* ---- lexer ---- *)

let keywords =
  [ "SELECT"; "DISTINCT"; "FROM"; "WHERE"; "JOIN"; "INNER"; "LEFT"; "OUTER";
    "ON"; "GROUP";
    "BY"; "HAVING"; "ORDER"; "ASC"; "DESC"; "LIMIT"; "AND"; "OR"; "NOT";
    "BETWEEN"; "IN"; "LIKE"; "IS"; "NULL"; "AS";
    "COUNT"; "SUM"; "AVG"; "MIN"; "MAX" ]

let is_reserved s = List.mem (String.uppercase_ascii s) keywords

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize input =
  let open Sqlir.Lexer in
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
        let tok =
          if is_reserved word then Kw (String.uppercase_ascii word) else Ident word
        in
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
        (* string literal; '' escapes a quote *)
        let buf = Buffer.create 16 in
        let rec scan j =
          if j >= n then raise (Lex_error ("unterminated string literal", i))
          else if input.[j] = '\'' then
            if j + 1 < n && input.[j + 1] = '\'' then begin
              Buffer.add_char buf '\'';
              scan (j + 2)
            end
            else j + 1
          else begin
            Buffer.add_char buf input.[j];
            scan (j + 1)
          end
        in
        let j = scan (i + 1) in
        go j (Str_lit (Buffer.contents buf) :: acc)
      end
      else begin
        let two = if i + 1 < n then String.sub input i 2 else "" in
        match two with
        | "<=" | ">=" | "<>" | "!=" ->
          let sym = if two = "!=" then "<>" else two in
          go (i + 2) (Sym sym :: acc)
        | _ ->
          (match c with
           | ',' | '(' | ')' | '.' | '*' | '=' | '<' | '>' | ';' | '-' | '+' | '/' ->
             go (i + 1) (Sym (String.make 1 c) :: acc)
           | _ ->
             raise (Lex_error (Printf.sprintf "unexpected character %C" c, i)))
      end
    end
  in
  go 0 []

(* ---- DBSCAN ---- *)

let dbscan_expand ~n ~min_pts ~range =
  let labels = Array.make n (-2) in
  (* -2 unvisited, -1 noise, >= 0 cluster id *)
  let cluster = ref (-1) in
  for i = 0 to n - 1 do
    if labels.(i) = -2 then begin
      let nbrs = range i in
      if List.length nbrs + 1 < min_pts then labels.(i) <- -1
      else begin
        incr cluster;
        labels.(i) <- !cluster;
        let queue = Queue.create () in
        List.iter (fun j -> Queue.add j queue) nbrs;
        while not (Queue.is_empty queue) do
          let j = Queue.pop queue in
          if labels.(j) = -1 then labels.(j) <- !cluster (* border point *)
          else if labels.(j) = -2 then begin
            labels.(j) <- !cluster;
            let nbrs_j = range j in
            if List.length nbrs_j + 1 >= min_pts then
              List.iter (fun k -> Queue.add k queue) nbrs_j
          end
        done
      end
    end
  done;
  labels

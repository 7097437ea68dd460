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

let access_per_attribute ?(x = Distance.D_access.default_x) q1 q2 =
  if not (x > 0.0 && x < 1.0) then invalid_arg "D_access: x must be in (0,1)";
  let a1 = Distance.Access_area.of_query q1 and a2 = Distance.Access_area.of_query q2 in
  let area areas key =
    Option.value (List.assoc_opt key areas) ~default:Distance.Access_area.Empty
  in
  List.sort_uniq String.compare (List.map fst a1 @ List.map fst a2)
  |> List.map (fun key ->
         (key, Distance.Access_area.delta ~x (area a1 key) (area a2 key)))

(* summed in ascending value order: attribute names sort differently
   before and after encryption, and float addition is not
   associative *)
let access ?x q1 q2 =
  match access_per_attribute ?x q1 q2 with
  | [] -> 0.0
  | deltas ->
    let values = List.sort Float.compare (List.map snd deltas) in
    List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)

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

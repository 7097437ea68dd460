type t = Token | Structure | Result | Access | Edit | Clause

let all = [ Token; Structure; Result; Access ]
let extended = all @ [ Edit; Clause ]

let to_string = function
  | Token -> "token"
  | Structure -> "structure"
  | Result -> "result"
  | Access -> "access-area"
  | Edit -> "edit"
  | Clause -> "clause"

let of_string = function
  | "token" -> Some Token
  | "structure" -> Some Structure
  | "result" -> Some Result
  | "access-area" | "access" -> Some Access
  | "edit" | "levenshtein" -> Some Edit
  | "clause" | "aligon" -> Some Clause
  | _ -> None

type ctx = {
  db : Minidb.Database.t option;
  x : float;
}

let default_ctx = { db = None; x = D_access.default_x }
let ctx_with_db db = { default_ctx with db = Some db }

let needs_db_content = function
  | Result -> true
  | Token | Structure | Access | Edit | Clause -> false

let needs_domains = function
  | Access -> true
  | Token | Structure | Result | Edit | Clause -> false

let m_evals = Obs.Registry.counter "kitdpe.distance.measure.evals"
let m_matrix = Obs.Registry.sketch "kitdpe.distance.measure.matrix"

let missing_db context =
  Fault.Error.Invariant { context; reason = "result distance needs a database" }

(* the part of a query's record that the measure reads: the one place
   where a measure decides its key *)
let key_of = function
  | Token -> Some Features.Token_set
  | Edit -> Some Features.Edit_tokens
  | Structure -> Some Features.Structure_set
  | Clause -> Some Features.Clause_sets
  | Access -> Some Features.Areas
  | Result -> None

let invariant context reason =
  Fault.Error.E (Fault.Error.Invariant { context; reason })

(* the pair evaluator of every measure but result: closes over the
   table, so the evaluations touch no query text *)
let pair_of_features ctx measure feats =
  let context = "Distance.Measure.pair_of_features" in
  match key_of measure with
  | None -> raise (invariant context "the result distance has no feature-table form")
  | Some key when key <> Features.key feats ->
    raise (invariant context "the table holds another measure's part")
  | Some _ ->
    let eval = Features.eval ~x:ctx.x feats in
    fun i ->
      let eval_i = eval i in
      fun j ->
        Obs.Metric.incr m_evals;
        eval_i j

let compute ctx measure q1 q2 =
  Obs.Metric.incr m_evals;
  match key_of measure, ctx.db with
  | Some key, _ -> Features.distance ~x:ctx.x key q1 q2
  | None, Some db -> D_result.distance db q1 q2
  | None, None -> raise (Fault.Error.E (missing_db "Distance.Measure.compute"))

(* The n-query matrix from one evaluation per pair of classes.  A class
   of two or more members ("repeated") gets a row of d cells in
   [cells]: the distances from its representative to every class,
   itself included, except to the repeated classes before it, whose
   rows hold those.  A pair of singleton classes, whose queries are
   their own representatives, is evaluated where its matrix cell is
   filled.  So the d(d-1)/2 pairs and the m self-distances are each
   evaluated once, and the rows take m*d cells: none on a log without
   repeats, at most n^2/4 (m <= n/2, d <= n - m).

   A table cell whose evaluation raised keeps its exception, and the
   matrix cells that read it raise it again, so the same matrix rows
   fail as when every cell evaluates its own pair.  Rows check the
   request deadline: an expired one leaves its cells unfilled, and the
   matrix fill that reads them skips every row for the same reason. *)
let class_matrix ~pool n eval (c : Features.classes) =
  let d = Array.length c.reps in
  let repeated =
    List.filter (fun a -> Array.length c.members.(a) > 1) (List.init d Fun.id)
    |> Array.of_list
  in
  (* [row.(a)]: class [a]'s row in [cells], or -1 for a singleton *)
  let row = Array.make d (-1) in
  Array.iteri (fun k a -> row.(a) <- k) repeated;
  let cells = Float.Array.make (Array.length repeated * d) 0.0 in
  (* a row's failed cells, [-1] for all of them *)
  let failed = Array.make (Array.length repeated) [] in
  let fill k =
    let a = repeated.(k) and base = k * d in
    if not (Parallel.Pool.deadline_expired ()) then
      match eval c.reps.(a) with
      | exception e -> failed.(k) <- [ (-1, e) ]
      | eval_a ->
        for b = 0 to d - 1 do
          if b >= a || row.(b) < 0 then
            match eval_a c.reps.(b) with
            | v -> Float.Array.set cells (base + b) v
            | exception e -> failed.(k) <- (b, e) :: failed.(k)
        done
  in
  Parallel.Pool.for_range pool (Array.length repeated) fill;
  (* the cell of repeated class [a] and class [b], with [b >= a] or [b]
     a singleton *)
  let cell a b =
    let k = row.(a) in
    (match failed.(k) with
     | [] -> ()
     | fs -> List.iter (fun (b', e) -> if b' = b || b' < 0 then raise e) fs);
    Float.Array.get cells ((k * d) + b)
  in
  let lookup i =
    let a = c.class_of.(i) in
    if row.(a) >= 0 then fun j ->
      let b = c.class_of.(j) in
      if row.(b) >= 0 && b < a then cell b a else cell a b
    else
      let eval_i = eval i in
      fun j ->
        let b = c.class_of.(j) in
        if row.(b) >= 0 then cell b a else eval_i j
  in
  Mining.Dist_matrix.of_fun_r ~pool n lookup

let matrix_r ?pool ctx measure queries =
  Obs.Span.with_span ~sketch:m_matrix ~cat:"distance"
    (Printf.sprintf "measure.matrix/%s(n=%d)" (to_string measure)
       (List.length queries))
    (fun () ->
      match key_of measure, ctx.db with
      | Some key, _ ->
        let pool = match pool with Some p -> p | None -> Parallel.Pool.global () in
        let qs = Array.of_list queries in
        Result.bind (Features.build_r ~pool qs) (fun log ->
            Result.bind (Features.table_r ~pool key log) (fun feats ->
                class_matrix ~pool (Array.length qs)
                  (pair_of_features ctx measure feats)
                  (Features.classes feats)))
      | None, Some db -> D_result.matrix_r ?pool db queries
      | None, None -> Error [ missing_db "Distance.Measure.matrix_r" ])

let matrix ?pool ctx measure queries =
  Fault.Error.get_ok (matrix_r ?pool ctx measure queries)

(* DTW over one table of every session's queries *)
let session_matrix sessions =
  let log = Features.build (Array.of_list (List.concat sessions)) in
  let key = Option.get (key_of Structure) in
  let feats = Fault.Error.get_ok (Features.table_r key log) in
  let cost = pair_of_features default_ctx Structure feats in
  (* query [k] of a session starting at table row [start] is row
     [start + k] *)
  let _, rows =
    List.fold_left_map
      (fun start s ->
        let n = List.length s in
        (start + n, Array.init n (fun k -> start + k)))
      0 sessions
  in
  let rows = Array.of_list rows in
  Mining.Dist_matrix.of_fun (Array.length rows) (fun a b ->
      Mining.Dtw.normalized ~cost rows.(a) rows.(b))

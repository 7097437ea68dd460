(* Wire vocabulary of the dpe_serve protocol: JSON payloads inside
   Frame frames.  Requests and responses are [Obs.Json.t] values, read
   by [Obs.Json.parse] and written by its inverse [Obs.Json.to_string].

   Responses are deterministic functions of the request and the typed
   error (no timestamps, no addresses), so seeded chaos runs can compare
   whole response streams for bit-equality. *)

module J = Obs.Json
module M = Distance.Measure

(* kept only for servebench/, which calls it; everything else calls
   [Obs.Json.to_string] *)
let render = J.to_string

(* ---- requests ---- *)

type op = Encrypt | Mine | Stats | Health

let op_to_string = function
  | Encrypt -> "encrypt"
  | Mine -> "mine"
  | Stats -> "stats"
  | Health -> "health"

let op_of_string = function
  | "encrypt" -> Some Encrypt
  | "mine" -> Some Mine
  | "stats" -> Some Stats
  | "health" -> Some Health
  | _ -> None

let compute_op = function
  | Encrypt | Mine -> true
  | Stats | Health -> false

type request = {
  id : int;
  op : op;
  tenant : string;
  measure : M.t;
  algo : string;
  k : int;
  eps : float;
  deadline_ms : int option;
  retries : int;
  engine : string option;
  queries : string list;
}

let engines = [ "matrix"; "index" ]

let max_retries = 8
let max_deadline_ms = 86_400_000

let proto reason = Fault.Error.Protocol { reason }

let parse_request s =
  match J.parse s with
  | Error e -> Error (None, proto ("unparseable request: " ^ e))
  | Ok j -> (
    let id = Option.bind (J.member "id" j) J.to_int in
    let fail reason = Error (id, proto reason) in
    let str name default =
      match J.member name j with
      | None -> Ok default
      | Some v -> (
        match J.to_str v with
        | Some s -> Ok s
        | None -> Error (id, proto (Printf.sprintf "field %s: expected string" name)))
    in
    let int name default =
      match J.member name j with
      | None -> Ok default
      | Some v -> (
        match J.to_int v with
        | Some n -> Ok n
        | None -> Error (id, proto (Printf.sprintf "field %s: expected integer" name)))
    in
    let ( let* ) = Result.bind in
    match id with
    | None -> fail "missing integer field id"
    | Some id_v -> (
      let* op_s = str "op" "" in
      match op_of_string op_s with
      | None -> fail (Printf.sprintf "unknown op %S" op_s)
      | Some op ->
        let* tenant = str "tenant" "default" in
        let* measure_s = str "measure" "token" in
        (match M.of_string measure_s with
         | None -> fail (Printf.sprintf "unknown measure %S" measure_s)
         | Some measure ->
           let* algo = str "algo" "clink" in
           let* k = int "k" 4 in
           let* retries = int "retries" 1 in
           let* () =
             if retries < 0 || retries > max_retries then
               fail (Printf.sprintf "field retries: expected 0..%d" max_retries)
             else Ok ()
           in
           let* deadline_ms =
             match J.member "deadline_ms" j with
             | None | Some J.Null -> Ok None
             | Some v -> (
               match J.to_int v with
               | Some ms when ms > 0 && ms <= max_deadline_ms -> Ok (Some ms)
               | _ ->
                 fail
                   (Printf.sprintf "field deadline_ms: expected 1..%d"
                      max_deadline_ms))
           in
           let* engine =
             match J.member "engine" j with
             | None | Some J.Null -> Ok None
             | Some v -> (
               match J.to_str v with
               | Some e when List.mem e engines -> Ok (Some e)
               | Some e -> Error (id, proto (Printf.sprintf "unknown engine %S" e))
               | None -> Error (id, proto "field engine: expected string"))
           in
           let* eps =
             match J.member "eps" j with
             | None -> Ok 0.45
             | Some v -> (
               match J.to_num v with
               | Some f -> Ok f
               | None -> Error (id, proto "field eps: expected number"))
           in
           let* queries =
             match J.member "queries" j with
             | None -> Ok []
             | Some v -> (
               match J.to_list v with
               | None -> Error (id, proto "field queries: expected array")
               | Some items ->
                 let rec strings acc = function
                   | [] -> Ok (List.rev acc)
                   | x :: rest -> (
                     match J.to_str x with
                     | Some s -> strings (s :: acc) rest
                     | None ->
                       Error (id, proto "field queries: expected array of strings"))
                 in
                 strings [] items)
           in
           Ok
             { id = id_v; op; tenant; measure; algo; k; eps; deadline_ms;
               retries; engine; queries })))

let request_to_json r =
  let base =
    [ ("id", J.int r.id);
      ("op", J.Str (op_to_string r.op));
      ("tenant", J.Str r.tenant);
      ("measure", J.Str (M.to_string r.measure));
      ("algo", J.Str r.algo);
      ("k", J.int r.k);
      ("eps", J.Num r.eps);
      ("retries", J.int r.retries) ]
  in
  let dl =
    match r.deadline_ms with
    | None -> []
    | Some ms -> [ ("deadline_ms", J.int ms) ]
  in
  let eng =
    match r.engine with None -> [] | Some e -> [ ("engine", J.Str e) ]
  in
  let qs =
    match r.queries with
    | [] -> []
    | qs -> [ ("queries", J.Arr (List.map (fun q -> J.Str q) qs)) ]
  in
  J.Obj (base @ dl @ eng @ qs)

(* ---- responses ---- *)

(* short machine-readable tag clients switch on; the human-readable
   rendering travels alongside in "error" *)
let error_kind = function
  | Fault.Error.Overloaded _ -> "overloaded"
  | Fault.Error.Deadline_exceeded _ -> "deadline"
  | Fault.Error.Draining -> "draining"
  | Fault.Error.Protocol _ -> "protocol"
  | Fault.Error.Injected _ -> "injected"
  | Fault.Error.Crypto_failure _ -> "crypto"
  | Fault.Error.Ope_range_exhausted _ -> "ope-range"
  | Fault.Error.Paillier_mismatch _ -> "paillier-mismatch"
  | Fault.Error.Csv_malformed _ -> "csv"
  | Fault.Error.Row_failed _ -> "row-failed"
  | Fault.Error.Task_failed _ -> "task-failed"
  | Fault.Error.Pool_lane_crash _ -> "lane-crash"
  | Fault.Error.Io_failure _ -> "io"
  | Fault.Error.Invariant _ -> "invariant"
  | Fault.Error.Unexpected _ -> "unexpected"

let id_field = function
  | None -> ("id", J.Null)
  | Some id -> ("id", J.int id)

let error_json e = J.Str (Fault.Error.to_string e)

let response_ok ~id body = J.Obj ((id_field (Some id) :: [ ("status", J.Str "ok") ]) @ body)

let response_partial ~id body ~errors =
  J.Obj
    ((id_field (Some id) :: [ ("status", J.Str "partial") ])
    @ body
    @ [ ("errors", J.Arr (List.map error_json errors)) ])

let response_error ?id e =
  let status =
    match e with Fault.Error.Overloaded _ -> "overloaded" | _ -> "error"
  in
  let extra =
    match e with
    | Fault.Error.Overloaded { queue_depth; retry_after_ms } ->
      [ ("queue_depth", J.int queue_depth);
        ("retry_after_ms", J.int retry_after_ms) ]
    | _ -> []
  in
  J.Obj
    ([ id_field id;
       ("status", J.Str status);
       ("error_kind", J.Str (error_kind e));
       ("error", error_json e) ]
    @ extra)

let response_id j = Option.bind (J.member "id" j) J.to_int

let response_status j =
  match Option.bind (J.member "status" j) J.to_str with
  | Some s -> s
  | None -> "error"

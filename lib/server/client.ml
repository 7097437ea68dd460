(* Blocking client for the dpe_serve wire protocol, used by the CLI
   client mode, the chaos server stage, the CI smoke job and the test
   suite.  One socket, request/response correlation by id (responses may
   arrive out of submission order when pipelining). *)

module J = Obs.Json

type t = {
  fd : Unix.file_descr;
  lock : Mutex.t;
  mutable next_id : int;
  (* ids sent but not yet collected: the only ids a response may carry.
     Anything else is unsolicited (buggy or hostile server) and is
     dropped instead of parked, so the server cannot grow our memory. *)
  mutable outstanding : int list;
  (* responses read while waiting for a different id (pipelining);
     bounded by [max_parked] as a backstop, and by construction only
     ever holds responses to outstanding requests *)
  mutable parked : (int * J.t) list;
}

(* parking is bounded by the caller's own pipelining depth (only
   outstanding ids park), so this cap is a pure backstop; past it the
   oldest parked response is discarded *)
let max_parked = 64

let io reason = Fault.Error.Io_failure { path = "socket"; reason }

let connect ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port)) with
  | () ->
    Ok { fd; lock = Mutex.create (); next_id = 0; outstanding = []; parked = [] }
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (io (Unix.error_message e))
  | exception Failure _ ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (io (Printf.sprintf "bad host %S" host))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let fresh_id t =
  Mutex.lock t.lock;
  t.next_id <- t.next_id + 1;
  let id = t.next_id in
  Mutex.unlock t.lock;
  id

let send_raw t payload = Frame.write t.fd payload

let settle t id = t.outstanding <- List.filter (fun i -> i <> id) t.outstanding

let park t id resp =
  let parked = t.parked @ [ (id, resp) ] in
  t.parked <-
    (if List.length parked > max_parked then List.tl parked else parked)

let rec read_until t want =
  if not (List.mem want t.outstanding) then
    (* waiting for an id that was never sent (or already collected)
       would drop every other response on the floor; fail fast instead *)
    Error
      (Fault.Error.Protocol
         { reason = Printf.sprintf "no outstanding request with id %d" want })
  else
    match List.assoc_opt want t.parked with
    | Some resp ->
      t.parked <- List.remove_assoc want t.parked;
      settle t want;
      Ok resp
    | None -> (
      match Frame.read t.fd with
      | Ok None -> Error (io "connection closed by server")
      | Error e -> Error e
      | Ok (Some payload) -> (
        match J.parse payload with
        | Error e -> Error (Fault.Error.Protocol { reason = "bad response: " ^ e })
        | Ok resp -> (
          match Proto.response_id resp with
          | Some id when id = want ->
            settle t want;
            Ok resp
          | Some id when List.mem id t.outstanding ->
            park t id resp;
            read_until t want
          | Some _ ->
            (* unsolicited id: drop it, never park it *)
            read_until t want
          | None ->
            (* an uncorrelated server-side protocol error aborts the wait:
               the stream is about to close *)
            Error
              (Fault.Error.Protocol
                 { reason = "server error: " ^ Proto.response_status resp }))))

let send t request =
  let id =
    match Proto.response_id request with
    | Some id -> id
    | None -> fresh_id t
  in
  let request =
    match request with
    | J.Obj kvs when List.mem_assoc "id" kvs -> request
    | J.Obj kvs -> J.Obj (("id", J.int id) :: kvs)
    | other -> other
  in
  match send_raw t (J.to_string request) with
  | Error e -> Error e
  | Ok () ->
    (* a resend under a caller-supplied fixed id (retry after a failed
       attempt) must not correlate with a stale parked response from
       the previous attempt *)
    t.parked <- List.remove_assoc id t.parked;
    if not (List.mem id t.outstanding) then
      t.outstanding <- id :: t.outstanding;
    Ok id

let collect t id = read_until t id

let call t request =
  match send t request with
  | Error e -> Error e
  | Ok id -> read_until t id

(* retry with real backoff: shed responses (status "overloaded") are
   converted to their typed error so the Retry policy sees them; the
   sleep honors at least the server's retry_after_ms hint *)
let call_retry ?(policy = Fault.Retry.default) t request =
  let hint = ref 0 in
  let sleep ns =
    let ns = max ns (!hint * 1_000_000) in
    if ns > 0 then Unix.sleepf (float_of_int ns /. 1e9)
  in
  Fault.Retry.run ~policy ~sleep
    ~retryable:(function
      | Fault.Error.Overloaded _ -> true
      | e -> Fault.Retry.retryable e)
    ~key:"server.client.call"
    (fun ~attempt ->
      ignore attempt;
      match call t request with
      | Error e -> Error e
      | Ok resp -> (
        match Proto.response_status resp with
        | "overloaded" ->
          let get name =
            match Option.bind (J.member name resp) J.to_int with
            | Some v -> v
            | None -> 0
          in
          hint := get "retry_after_ms";
          Error
            (Fault.Error.Overloaded
               { queue_depth = get "queue_depth"; retry_after_ms = get "retry_after_ms" })
        | _ -> Ok resp))

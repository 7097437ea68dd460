(* Tests for the always-on server (DESIGN.md §14): wire framing edge
   cases, protocol parsing, the bounded admission queue, request
   dispatch with graceful degradation, and the full engine loop —
   every framed request answered, deadline expiry typed, drain with
   zero dropped in-flight requests, byte-identical answers across
   restarts. *)

module J = Obs.Json
module Frame = Server.Frame
module Proto = Server.Proto
module Admission = Server.Admission
module Engine = Server.Engine
module Client = Server.Client

(* counters are no-ops while Obs is disabled; the engine tests read
   them, so the whole suite runs with telemetry on (as the server does) *)
let () = Obs.set_enabled true

(* the drain tests write into sockets the server may close first *)
let () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let is_protocol = function Fault.Error.Protocol _ -> true | _ -> false

(* ---- framing ---- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      List.iter
        (fun payload ->
          (match Frame.write a payload with
           | Ok () -> ()
           | Error e -> Alcotest.failf "write: %s" (Fault.Error.to_string e));
          match Frame.read b with
          | Ok (Some got) -> check_str "roundtrip" payload got
          | Ok None -> Alcotest.fail "unexpected EOF"
          | Error e -> Alcotest.failf "read: %s" (Fault.Error.to_string e))
        [ "hello"; ""; String.make 70000 'x'; "{\"op\":\"health\"}" ])

let test_frame_clean_eof () =
  with_socketpair (fun a b ->
      Unix.close a;
      match Frame.read b with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "phantom frame"
      | Error e -> Alcotest.failf "EOF not clean: %s" (Fault.Error.to_string e))

let test_frame_truncated_header () =
  with_socketpair (fun a b ->
      (* two bytes of a four-byte header, then disconnect *)
      ignore (Unix.write_substring a "\x00\x00" 0 2);
      Unix.close a;
      match Frame.read b with
      | Error e -> check_bool "typed Protocol" true (is_protocol e)
      | Ok _ -> Alcotest.fail "truncated header accepted")

let test_frame_truncated_payload () =
  with_socketpair (fun a b ->
      (* header promises 100 bytes, 10 arrive, peer disconnects *)
      let h = Bytes.create 4 in
      Bytes.set_int32_be h 0 100l;
      ignore (Unix.write a h 0 4);
      ignore (Unix.write_substring a "0123456789" 0 10);
      Unix.close a;
      match Frame.read b with
      | Error e -> check_bool "typed Protocol" true (is_protocol e)
      | Ok _ -> Alcotest.fail "truncated payload accepted")

let test_frame_oversized_prefix () =
  List.iter
    (fun len ->
      with_socketpair (fun a b ->
          let h = Bytes.create 4 in
          Bytes.set_int32_be h 0 len;
          ignore (Unix.write a h 0 4);
          match Frame.read b with
          | Error e -> check_bool "typed Protocol" true (is_protocol e)
          | Ok _ -> Alcotest.fail "bad length prefix accepted"))
    [ Int32.max_int; 0x7000_0000l; -1l; Int32.of_int (Frame.max_frame + 1) ]

let test_frame_write_oversized () =
  with_socketpair (fun a _b ->
      match Frame.write a (String.make (Frame.max_frame + 1) 'x') with
      | Error e -> check_bool "typed Protocol" true (is_protocol e)
      | Ok () -> Alcotest.fail "oversized write accepted")

(* ---- protocol ---- *)

let test_parse_request_defaults () =
  match Proto.parse_request {|{"id":7,"op":"mine","queries":["SELECT a FROM r"]}|} with
  | Error (_, e) -> Alcotest.failf "parse: %s" (Fault.Error.to_string e)
  | Ok r ->
    check_int "id" 7 r.Proto.id;
    check_bool "op" true (r.Proto.op = Proto.Mine);
    check_str "tenant default" "default" r.Proto.tenant;
    check_str "algo default" "clink" r.Proto.algo;
    check_bool "no deadline" true (r.Proto.deadline_ms = None);
    check_int "queries" 1 (List.length r.Proto.queries)

let test_parse_request_garbage () =
  (match Proto.parse_request "this is not json" with
   | Error (None, e) -> check_bool "typed Protocol" true (is_protocol e)
   | Error (Some _, _) -> Alcotest.fail "id invented for garbage"
   | Ok _ -> Alcotest.fail "garbage parsed");
  (* the parse runs on the reader thread before admission, so no deadline
     covers it: a deeply nested frame must fail at the JSON depth bound,
     having read at most [max_depth + 1] of its 4M brackets *)
  (match Proto.parse_request (String.make (4 * 1024 * 1024) '[') with
   | Error (None, Fault.Error.Protocol { reason }) -> (
     match
       Scanf.sscanf_opt reason "unparseable request: nesting deeper than %d at offset %d%!"
         (fun depth offset -> (depth, offset))
     with
     | Some (depth, offset) ->
       check_int "nested frame: the JSON depth bound" J.max_depth depth;
       check_bool
         (Printf.sprintf "nested frame: rejected at offset %d <= %d" offset
            (J.max_depth + 1))
         true
         (offset <= J.max_depth + 1)
     | None -> Alcotest.failf "nested frame: not the depth-bound error: %s" reason)
   | Error (None, _) -> Alcotest.fail "nested frame: not a Protocol error"
   | Error (Some _, _) -> Alcotest.fail "id invented for a nested frame"
   | Ok _ -> Alcotest.fail "4 MB of '[' parsed");
  (* hostile SQL inside a well-formed frame: an integer literal that
     overflows [int] and a million nested parentheses are typed protocol
     errors (the SQL parser is total and depth-bounded); the nesting
     fails at the parser's depth bound *)
  let ctx =
    { Server.Dispatch.tenants = Server.Tenant.create ~master:"garbage";
      queue_depth = (fun () -> 0);
      inflight = (fun () -> 0);
      draining = (fun () -> false) }
  in
  List.iter
    (fun (what, sql, error) ->
      let req =
        { Proto.id = 5; op = Proto.Encrypt; tenant = "t"; measure = Distance.Measure.Token;
          algo = "clink"; k = 2; eps = 0.45; deadline_ms = None; retries = 1;
          engine = None; queries = [ "SELECT a FROM t"; sql ] }
      in
      let resp = Server.Dispatch.handle ctx req in
      check_str (what ^ " -> error") "error" (Proto.response_status resp);
      check_bool (what ^ ": kind protocol") true
        (Option.bind (J.member "error_kind" resp) J.to_str = Some "protocol");
      Option.iter
        (fun error ->
          check_str (what ^ ": error") error
            (Option.value ~default:"" (Option.bind (J.member "error" resp) J.to_str)))
        error)
    [ ("overflowing literal", "SELECT a FROM t WHERE a = 99999999999999999999999", None);
      ("1M-deep nesting",
       "SELECT a FROM t WHERE " ^ String.make 1_000_000 '(' ^ "a = 1"
       ^ String.make 1_000_000 ')',
       Some
         (Printf.sprintf
            "protocol error: queries[1]: parse error: predicate nesting deeper than %d"
            Sqlir.Parser.max_depth)) ];
  (* id recoverable even when the rest of the request is malformed *)
  (match Proto.parse_request {|{"id":3,"op":"noop"}|} with
   | Error (Some 3, e) -> check_bool "typed Protocol" true (is_protocol e)
   | Error (_, _) -> Alcotest.fail "id lost"
   | Ok _ -> Alcotest.fail "unknown op parsed");
  match Proto.parse_request {|{"id":4,"op":"mine","deadline_ms":-5}|} with
  | Error (Some 4, e) -> check_bool "typed Protocol" true (is_protocol e)
  | Error (_, _) -> Alcotest.fail "id lost"
  | Ok _ -> Alcotest.fail "negative deadline parsed"

(* the client chooses [retries] and [deadline_ms], so both are bounded
   at the wire, and an integer field never takes a truncated fraction *)
let test_parse_request_bounds () =
  let refused what payload =
    match Proto.parse_request payload with
    | Error (Some 9, e) -> check_bool (what ^ ": typed Protocol") true (is_protocol e)
    | Error (_, _) -> Alcotest.failf "%s: id lost" what
    | Ok _ -> Alcotest.failf "%s: parsed" what
  in
  let accepted what payload =
    match Proto.parse_request payload with
    | Ok r -> r
    | Error (_, e) -> Alcotest.failf "%s: %s" what (Fault.Error.to_string e)
  in
  let req fields = Printf.sprintf {|{"id":9,"op":"mine",%s}|} fields in
  refused "retries 10^6" (req {|"retries":1000000|});
  refused "retries -1" (req {|"retries":-1|});
  refused "retries max+1" (req (Printf.sprintf {|"retries":%d|} (Proto.max_retries + 1)));
  check_int "retries max" Proto.max_retries
    (accepted "retries max"
       (req (Printf.sprintf {|"retries":%d|} Proto.max_retries))).Proto.retries;
  check_int "retries 0" 0 (accepted "retries 0" (req {|"retries":0|})).Proto.retries;
  refused "deadline 3e12 ms" (req {|"deadline_ms":3000000000000|});
  refused "deadline max+1"
    (req (Printf.sprintf {|"deadline_ms":%d|} (Proto.max_deadline_ms + 1)));
  check_bool "deadline 24 h" true
    ((accepted "deadline max"
        (req (Printf.sprintf {|"deadline_ms":%d|} Proto.max_deadline_ms))).Proto.deadline_ms
     = Some Proto.max_deadline_ms);
  refused "engine oracle" (req {|"engine":"oracle"|});
  refused "k 2.7" (req {|"k":2.7|});
  refused "k 1e300" (req {|"k":1e300|});
  match Proto.parse_request {|{"id":1.5,"op":"health"}|} with
  | Error (None, e) -> check_bool "fractional id: typed Protocol" true (is_protocol e)
  | Error (Some id, _) -> Alcotest.failf "fractional id answered as %d" id
  | Ok r -> Alcotest.failf "fractional id answered as %d" r.Proto.id

let test_render_parse_inverse () =
  let req =
    { Proto.id = 12; op = Proto.Encrypt; tenant = "t1";
      measure = Distance.Measure.Token; algo = "dbscan"; k = 5; eps = 0.3;
      deadline_ms = Some 250; retries = 2; engine = Some "index";
      queries = [ "SELECT a FROM r"; "SELECT b FROM s" ] }
  in
  match Proto.parse_request (J.to_string (Proto.request_to_json req)) with
  | Error (_, e) -> Alcotest.failf "re-parse: %s" (Fault.Error.to_string e)
  | Ok r -> check_bool "request roundtrips" true (r = req)

(* integral ids up to 2^53 and a non-integral eps cross the wire
   exactly: a rounded id is dropped by the client as unsolicited, a
   rounded eps mines with another radius than the owner's *)
let test_wire_numbers_exact () =
  let req =
    { Proto.id = (1 lsl 53) - 1; op = Proto.Mine; tenant = "t1";
      measure = Distance.Measure.Token; algo = "dbscan"; k = 2;
      eps = 1. /. 3.; deadline_ms = None; retries = 1; engine = None;
      queries = [ "SELECT a FROM r" ] }
  in
  (match Proto.parse_request (J.to_string (Proto.request_to_json req)) with
   | Error (_, e) -> Alcotest.failf "re-parse: %s" (Fault.Error.to_string e)
   | Ok r ->
     check_int "id 2^53 - 1" req.Proto.id r.Proto.id;
     check_bool "eps 1/3 bit-identical" true (Float.equal r.Proto.eps req.Proto.eps));
  let ctx =
    { Server.Dispatch.tenants = Server.Tenant.create ~master:"ids";
      queue_depth = (fun () -> 0);
      inflight = (fun () -> 0);
      draining = (fun () -> false) }
  in
  let id = 1_000_000_000_000_001 in
  match Proto.parse_request (Printf.sprintf {|{"id":%d,"op":"health"}|} id) with
  | Error (_, e) -> Alcotest.failf "parse: %s" (Fault.Error.to_string e)
  | Ok r -> (
    let wire = J.to_string (Server.Dispatch.handle ctx r) in
    match J.parse wire with
    | Ok resp ->
      check_bool (Printf.sprintf "answered %s with the id 10^15 + 1" wire) true
        (Proto.response_id resp = Some id)
    | Error e -> Alcotest.failf "response %s does not parse: %s" wire e)

let test_response_shapes () =
  let ok = Proto.response_ok ~id:1 [ ("x", J.Num 1.) ] in
  check_str "ok status" "ok" (Proto.response_status ok);
  check_bool "ok id" true (Proto.response_id ok = Some 1);
  let shed =
    Proto.response_error ~id:2
      (Fault.Error.Overloaded { queue_depth = 9; retry_after_ms = 55 })
  in
  check_str "overloaded status" "overloaded" (Proto.response_status shed);
  check_bool "retry hint" true
    (Option.bind (J.member "retry_after_ms" shed) J.to_int = Some 55);
  let partial =
    Proto.response_partial ~id:3 [ ("y", J.Null) ]
      ~errors:[ Fault.Error.Protocol { reason = "r" } ]
  in
  check_str "partial status" "partial" (Proto.response_status partial);
  check_bool "error manifest" true (J.member "errors" partial <> None)

(* ---- never-raise contracts on client bytes ---- *)

(* [parse_request] and [Frame.read] answer [Ok] or [Error] on anything a
   client can send, raw bytes and soup of the wire's own tokens alike *)
let json_lexeme =
  QCheck.Gen.(
    frequency
      [ (4, oneofl [ "{"; "}"; "["; "]"; ":"; ","; "\""; "\\"; "null"; "true"; "false" ]);
        (3, oneofl [ "\"id\""; "\"op\""; "\"tenant\""; "\"measure\""; "\"algo\"";
                     "\"k\""; "\"eps\""; "\"deadline_ms\""; "\"retries\"";
                     "\"engine\""; "\"queries\""; "\"mine\""; "\"encrypt\"";
                     "\"token\""; "\"clink\""; "\"SELECT a FROM r\"" ]);
        (2, map string_of_int int);
        (1, oneofl [ "1e308"; "1e999"; "-0"; "1.5e-7"; "-"; "0x1F"; "\"\\u00e9\"";
                     "\"\\ud800\"" ]) ])

let json_soup =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      map2
        (fun prefix body -> prefix ^ String.concat "" body)
        (oneofl [ ""; "{\"id\":1,\"op\":\"mine\","; "{\"op\":\"encrypt\",\"queries\":[" ])
        (list_size (int_range 0 40) json_lexeme))

(* frames whose length prefix is right, a little off, or negative *)
let frame_soup =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      map (String.concat "")
        (list_size (int_range 0 6)
           (map2
              (fun payload delta ->
                let b = Bytes.create 4 in
                Bytes.set_int32_be b 0
                  (Int32.of_int (String.length payload + delta));
                Bytes.to_string b ^ payload)
              (string_size ~gen:char (int_range 0 40))
              (oneofl [ 0; 0; 0; 1; -1; 7; -100 ]))))

(* every frame of [input], written to a pipe and read back until EOF or
   the first typed error; inputs stay under PIPE_BUF, so one write is
   whole *)
let read_all_frames input =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () -> Unix.close r)
    (fun () ->
      ignore (Unix.write_substring w input 0 (String.length input));
      Unix.close w;
      let rec drain () =
        match Frame.read r with Ok (Some _) -> drain () | Ok None | Error _ -> ()
      in
      drain ())

let fuzz_properties =
  [ QCheck.Test.make ~name:"parse_request total on arbitrary bytes" ~count:1000
      QCheck.(string_gen_of_size Gen.(int_range 0 120) Gen.char)
      (Testkit.never_raises Proto.parse_request);
    QCheck.Test.make ~name:"parse_request total on JSON token soup" ~count:1000
      json_soup (Testkit.never_raises Proto.parse_request);
    QCheck.Test.make ~name:"Frame.read total on arbitrary bytes" ~count:300
      QCheck.(string_gen_of_size Gen.(int_range 0 120) Gen.char)
      (Testkit.never_raises read_all_frames);
    QCheck.Test.make ~name:"Frame.read total on frame-shaped bytes" ~count:300
      frame_soup (Testkit.never_raises read_all_frames) ]

(* ---- admission ---- *)

let test_admission_sheds () =
  let q = Admission.create ~capacity:2 in
  check_int "capacity" 2 (Admission.capacity q);
  check_bool "first admitted" true (Result.is_ok (Admission.submit q ~key:1 `A));
  check_bool "second admitted" true (Result.is_ok (Admission.submit q ~key:2 `B));
  (match Admission.submit q ~key:3 `C with
   | Error (Fault.Error.Overloaded { queue_depth; retry_after_ms }) ->
     check_int "depth at shed" 2 queue_depth;
     check_int "hint deterministic" (Admission.retry_after_ms 2) retry_after_ms
   | Error e -> Alcotest.failf "wrong error: %s" (Fault.Error.to_string e)
   | Ok () -> Alcotest.fail "overfull queue admitted");
  (* shedding is an answer, not a drop: the queue still serves *)
  check_bool "take A" true (Admission.take q = Some `A);
  check_bool "room again" true (Result.is_ok (Admission.submit q ~key:4 `D))

let test_admission_drain () =
  let q = Admission.create ~capacity:8 in
  ignore (Admission.submit q ~key:1 `A);
  ignore (Admission.submit q ~key:2 `B);
  Admission.start_drain q;
  (match Admission.submit q ~key:3 `C with
   | Error Fault.Error.Draining -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (Fault.Error.to_string e)
   | Ok () -> Alcotest.fail "draining queue admitted");
  (* the backlog is finished, never discarded *)
  check_bool "backlog A" true (Admission.take q = Some `A);
  check_bool "backlog B" true (Admission.take q = Some `B);
  check_bool "then None" true (Admission.take q = None);
  check_bool "idempotent" true (Admission.take q = None)

let test_admission_injected_shed () =
  Fault.Inject.disarm_all ();
  (match Fault.Inject.arm_spec "server.admission=always;seed=t" with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Fault.Inject.disarm_all (fun () ->
      let q = Admission.create ~capacity:8 in
      match Admission.submit q ~key:1 `A with
      | Error (Fault.Error.Overloaded _) ->
        check_int "nothing queued" 0 (Admission.depth q)
      | Error e -> Alcotest.failf "wrong error: %s" (Fault.Error.to_string e)
      | Ok () -> Alcotest.fail "armed point did not shed")

(* ---- engine: end-to-end over a real socket ---- *)

let sky_queries =
  [ "SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 100 AND 200";
    "SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 150 AND 300";
    "SELECT class, COUNT(*) FROM photoobj GROUP BY class";
    "SELECT objid, magnitude FROM photoobj WHERE class = 'SKY'";
    "SELECT objid, ra, dec FROM photoobj WHERE dec BETWEEN 1 AND 2";
    "SELECT class, COUNT(*) FROM photoobj WHERE magnitude < 20 GROUP BY class" ]

let test_config =
  { Engine.default_config with Engine.workers = 2; queue_capacity = 16;
    master = "test-server" }

let with_engine ?(cfg = test_config) f =
  match Engine.start cfg with
  | Error e -> Alcotest.failf "start: %s" (Fault.Error.to_string e)
  | Ok t ->
    Fun.protect
      ~finally:(fun () ->
        Engine.request_drain t;
        Engine.wait t)
      (fun () -> f t)

let with_client t f =
  match Client.connect ~port:(Engine.port t) () with
  | Error e -> Alcotest.failf "connect: %s" (Fault.Error.to_string e)
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let request ?(id = 0) ?(op = Proto.Mine) ?(tenant = "t") ?deadline_ms
    ?(retries = 1) ?(queries = sky_queries) ?(measure = Distance.Measure.Token)
    ?(algo = "clink") ?(k = 2) ?engine () =
  Proto.request_to_json
    { Proto.id; op; tenant; measure; algo; k; eps = 0.45;
      deadline_ms; retries; engine; queries }

let call_ok c req =
  match Client.call c req with
  | Ok resp -> resp
  | Error e -> Alcotest.failf "call: %s" (Fault.Error.to_string e)

let test_engine_ops () =
  with_engine (fun t ->
      with_client t (fun c ->
          let enc = call_ok c (request ~op:Proto.Encrypt ()) in
          check_str "encrypt ok" "ok" (Proto.response_status enc);
          check_bool "ciphertexts" true (J.member "ciphertexts" enc <> None);
          let mine = call_ok c (request ~op:Proto.Mine ()) in
          check_str "mine ok" "ok" (Proto.response_status mine);
          (match Option.bind (J.member "labels" mine) J.to_list with
           | Some labels ->
             check_int "one label per query" (List.length sky_queries)
               (List.length labels)
           | None -> Alcotest.fail "no labels");
          let health = call_ok c (request ~op:Proto.Health ~queries:[] ()) in
          check_str "health ok" "ok" (Proto.response_status health);
          let stats = call_ok c (request ~op:Proto.Stats ~queries:[] ()) in
          check_str "stats ok" "ok" (Proto.response_status stats);
          check_bool "snapshot" true (J.member "snapshot" stats <> None)))

let test_engine_warm_cache_identical () =
  (* same request twice on one server: the second answer comes from warm
     OPE/DET memo caches and must be byte-identical *)
  with_engine (fun t ->
      with_client t (fun c ->
          let a = call_ok c (request ~id:1 ~op:Proto.Encrypt ()) in
          let b = call_ok c (request ~id:1 ~op:Proto.Encrypt ()) in
          check_str "warm cache bit-identical" (J.to_string a) (J.to_string b)))

let test_engine_typed_errors () =
  with_engine (fun t ->
      with_client t (fun c ->
          (* unknown op: typed protocol error, session lives (the client
             adds the id, so the error answer correlates) *)
          let bad = call_ok c (J.Obj [ ("op", J.Str "noop") ]) in
          check_str "garbage -> error" "error" (Proto.response_status bad);
          check_bool "kind protocol" true
            (Option.bind (J.member "error_kind" bad) J.to_str = Some "protocol");
          (* unparseable SQL in an otherwise fine request *)
          let badq =
            call_ok c (request ~op:Proto.Mine ~queries:[ "SELECT"; "nope" ] ())
          in
          check_str "bad SQL -> error" "error" (Proto.response_status badq);
          (* a single query cannot be mined *)
          let one =
            call_ok c (request ~op:Proto.Mine ~queries:[ List.hd sky_queries ] ())
          in
          check_str "1 query -> error" "error" (Proto.response_status one);
          (* the session answered three bad requests and still works *)
          let ok = call_ok c (request ~op:Proto.Health ~queries:[] ()) in
          check_str "session usable" "ok" (Proto.response_status ok)))

let test_engine_mid_request_disconnect () =
  with_engine (fun t ->
      (* a half-sent frame followed by a disconnect must not crash the
         server or leak the session *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Engine.port t));
      let h = Bytes.create 4 in
      Bytes.set_int32_be h 0 4096l;
      ignore (Unix.write fd h 0 4);
      ignore (Unix.write_substring fd "partial" 0 7);
      Unix.close fd;
      (* the server keeps serving fresh connections *)
      with_client t (fun c ->
          let ok = call_ok c (request ~op:Proto.Health ~queries:[] ()) in
          check_str "server alive" "ok" (Proto.response_status ok)))

let test_engine_queue_deadline () =
  (* a 1 ms deadline on a mine over hundreds of queries expires while
     the request queues or early in its compute -> typed deadline answer,
     and the pool lanes it held are released for the next request *)
  let cfg = { test_config with Engine.workers = 1 } in
  let big =
    List.init 400 (fun i ->
        Printf.sprintf
          "SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN %d AND %d" i
          (i + 50))
  in
  with_engine ~cfg (fun t ->
      with_client t (fun c ->
          let r1 = request ~id:1 ~op:Proto.Mine ~queries:big () in
          let r2 =
            request ~id:2 ~op:Proto.Mine ~queries:big ~deadline_ms:1 ()
          in
          (match (Client.call c r1, Client.call c r2) with
           | Ok a, Ok b ->
             check_str "busy mine ok" "ok" (Proto.response_status a);
             check_str "deadlined request typed" "error"
               (Proto.response_status b);
             check_bool "kind deadline" true
               (Option.bind (J.member "error_kind" b) J.to_str = Some "deadline")
           | Error e, _ | _, Error e ->
             Alcotest.failf "call: %s" (Fault.Error.to_string e));
          (* the expired request released its lanes: a normal one succeeds *)
          let after = call_ok c (request ~id:3 ~op:Proto.Mine ()) in
          check_str "lanes released after expiry" "ok"
            (Proto.response_status after)))

let test_engine_degraded_mine () =
  (* armed feature builds fail for some queries: the response is partial
     with labels for the healthy subset and -1 for the excluded ones *)
  Fault.Inject.disarm_all ();
  (* triggers are keyed by query index: arming the LAST index means the
     rebuild over the healthy prefix (keys 0..4) cannot re-fire, so the
     degradation is a deterministic partial rather than a second failure *)
  (match Fault.Inject.arm_spec "distance.features.build=nth:5;seed=deg" with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Fault.Inject.disarm_all (fun () ->
      with_engine (fun t ->
          with_client t (fun c ->
              let resp = call_ok c (request ~op:Proto.Mine ()) in
              check_str "degraded -> partial" "partial"
                (Proto.response_status resp);
              (match Option.bind (J.member "labels" resp) J.to_list with
               | Some labels ->
                 check_int "full-length labels" (List.length sky_queries)
                   (List.length labels);
                 check_bool "an excluded query is -1" true
                   (List.exists (fun l -> J.to_int l = Some (-1)) labels)
               | None -> Alcotest.fail "no labels");
              check_bool "error manifest present" true
                (J.member "errors" resp <> None))))

let error_kind resp = Option.bind (J.member "error_kind" resp) J.to_str

let test_engine_dist_matrix_partial () =
  (* the mine path fills its matrix through Dist_matrix.of_fun_r, so an
     armed eval point fails the row it hits.  Keys are cell coordinates:
     (4, 5) is the last cell of row 4 of 6, which the rebuild over the 5
     healthy queries never reaches, so the answer is a deterministic
     partial with query 4 excluded *)
  Fault.Inject.disarm_all ();
  (match
     Fault.Inject.arm_spec
       (Printf.sprintf "mining.dist_matrix.eval=nth:%d;seed=dm" ((4 lsl 20) lor 5))
   with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Fault.Inject.disarm_all (fun () ->
      with_engine (fun t ->
          with_client t (fun c ->
              let resp = call_ok c (request ()) in
              check_str "armed eval -> partial" "partial"
                (Proto.response_status resp);
              (match Option.bind (J.member "excluded" resp) J.to_list with
               | Some ex ->
                 Alcotest.(check (list int)) "failed row excluded" [ 4 ]
                   (List.filter_map J.to_int ex)
               | None -> Alcotest.fail "no excluded list");
              check_bool "error manifest present" true
                (J.member "errors" resp <> None))))

let test_engine_matrix_bound () =
  (* a clink over more queries than the matrix bound is a protocol
     answer from the planner, before any distance is evaluated *)
  let queries =
    List.init (Server.Mine_plan.max_matrix_n + 1) (fun i ->
        Printf.sprintf
          "SELECT objid, ra FROM photoobj WHERE ra BETWEEN %d AND %d" i (i + 50))
  in
  let evals = Obs.Registry.counter "kitdpe.distance.measure.evals" in
  with_engine (fun t ->
      with_client t (fun c ->
          let before = Obs.Metric.value evals in
          let resp = call_ok c (request ~queries ()) in
          check_str "4097-query clink -> protocol" "protocol"
            (Option.value ~default:"ok" (error_kind resp));
          check_int "no distance evaluated" before (Obs.Metric.value evals)))

let test_engine_mine_k_range () =
  (* an out-of-range k is a protocol error from the planner, answered
     before any distance is evaluated *)
  let evals = Obs.Registry.counter "kitdpe.distance.measure.evals" in
  with_engine (fun t ->
      with_client t (fun c ->
          let before = Obs.Metric.value evals in
          List.iter
            (fun (algo, k, engine) ->
              let resp = call_ok c (request ~algo ~k ?engine ()) in
              check_str (Printf.sprintf "%s k=%d -> protocol" algo k)
                "protocol"
                (Option.value ~default:"ok" (error_kind resp)))
            [ ("clink", 0, None); ("kmedoids", 7, None);
              ("kmedoids", 7, Some "index") ];
          check_int "no distance evaluated" before (Obs.Metric.value evals)));
  (* k fits the request but not the healthy subset of a degraded mine:
     the original typed error, not a crash in the retry *)
  Fault.Inject.disarm_all ();
  (match Fault.Inject.arm_spec "distance.features.build=nth:5;seed=deg" with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Fault.Inject.disarm_all (fun () ->
      with_engine (fun t ->
          with_client t (fun c ->
              let resp = call_ok c (request ~k:6 ()) in
              check_str "subset < k -> original error" "task-failed"
                (Option.value ~default:"ok" (error_kind resp)))))

let test_engine_wire_bounds () =
  (* a retry budget the client picks without limit would spin under the
     compute lock, and a deadline past the ns range would wrap negative
     and expire at once: both are protocol answers, while an ordinary
     deadline still mines *)
  with_engine (fun t ->
      with_client t (fun c ->
          let kind resp = Option.value ~default:"ok" (error_kind resp) in
          let having =
            [ "SELECT class FROM photoobj GROUP BY class HAVING SUM(magnitude) > 5" ]
          in
          check_str "retries 10^6 -> protocol" "protocol"
            (kind
               (call_ok c
                  (request ~op:Proto.Encrypt ~measure:Distance.Measure.Result
                     ~retries:1_000_000 ~queries:having ())));
          let three = List.filteri (fun i _ -> i < 3) sky_queries in
          check_str "deadline 3e12 ms -> protocol" "protocol"
            (kind (call_ok c (request ~deadline_ms:3_000_000_000_000 ~queries:three ())));
          check_str "deadline 1 s mines" "ok"
            (Proto.response_status
               (call_ok c (request ~deadline_ms:1000 ~queries:three ())))))

let labels_of resp =
  match Option.bind (J.member "labels" resp) J.to_list with
  | Some ls -> Array.of_list (List.map (fun l -> Option.get (J.to_int l)) ls)
  | None -> Alcotest.fail "no labels"

let str_field name resp = Option.bind (J.member name resp) J.to_str

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let test_engine_index_fallback_visible () =
  (* the index engine fails to build: the mine still answers ok with
     the matrix labels, and says which engine ran and why *)
  let expected =
    let log =
      List.map (fun q -> Result.get_ok (Sqlir.Parser.parse_result q)) sky_queries
    in
    Mining.Dbscan.run { Mining.Dbscan.eps = 0.45; min_pts = 3 }
      (Distance.Measure.matrix Distance.Measure.default_ctx
         Distance.Measure.Token log)
  in
  let dbscan_index () = request ~algo:"dbscan" ~engine:"index" () in
  Fault.Inject.disarm_all ();
  with_engine (fun t ->
      with_client t (fun c ->
          let clean = call_ok c (dbscan_index ()) in
          check_str "unarmed ok" "ok" (Proto.response_status clean);
          check_bool "unarmed: the index engine ran" true
            (str_field "engine" clean = Some "index");
          check_bool "unarmed: no fallback" true
            (J.member "fallback" clean = None);
          Alcotest.(check (array int)) "index labels = matrix labels" expected
            (labels_of clean);
          (match Fault.Inject.arm_spec "index.build=always;seed=fb" with
           | Ok () -> ()
           | Error e -> Alcotest.fail e);
          Fun.protect ~finally:Fault.Inject.disarm_all (fun () ->
              let resp = call_ok c (dbscan_index ()) in
              check_str "armed: still ok" "ok" (Proto.response_status resp);
              Alcotest.(check (array int)) "armed: matrix labels" expected
                (labels_of resp);
              check_bool "armed: the matrix engine ran" true
                (str_field "engine" resp = Some "matrix");
              match str_field "fallback" resp with
              | Some reason ->
                check_bool "reason names the index build" true
                  (contains reason "index.build")
              | None -> Alcotest.fail "no fallback reason")))

let test_engine_kmedoids_index_fallback () =
  (* "index" does not cover kmedoids, so the request runs on the
     matrix, says so, and labels like a "matrix" request *)
  with_engine (fun t ->
      with_client t (fun c ->
          let kmedoids engine = call_ok c (request ~algo:"kmedoids" ~engine ()) in
          let via_matrix = kmedoids "matrix" and via_index = kmedoids "index" in
          check_str "kmedoids index ok" "ok" (Proto.response_status via_index);
          check_bool "kmedoids index: the matrix engine ran" true
            (str_field "engine" via_index = Some "matrix");
          check_bool "kmedoids index: fallback reported" true
            (J.member "fallback" via_index <> None);
          Alcotest.(check (array int)) "kmedoids index labels = matrix labels"
            (labels_of via_matrix) (labels_of via_index)))

let test_engine_drain_answers_backlog () =
  (* requests in flight when drain starts are all answered: zero dropped *)
  let cfg = { test_config with Engine.workers = 1 } in
  let n = 6 in
  with_engine ~cfg (fun t ->
      with_client t (fun c ->
          (* fill the pipe, then immediately request drain *)
          let ids = List.init n (fun i -> i + 1) in
          List.iter
            (fun id ->
              match Client.send c (request ~id ~op:Proto.Mine ()) with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "send: %s" (Fault.Error.to_string e))
            ids;
          Engine.request_drain t;
          let statuses =
            List.map
              (fun id ->
                match Client.collect c id with
                | Ok resp -> Proto.response_status resp
                | Error e -> Alcotest.failf "collect: %s" (Fault.Error.to_string e))
              ids
          in
          check_int "every in-flight request answered" n (List.length statuses);
          List.iter
            (fun s ->
              check_bool "typed status" true
                (List.mem s [ "ok"; "partial"; "error"; "overloaded" ]))
            statuses));
  (* after wait () the listener is gone *)
  ()

let test_engine_rejects_after_drain () =
  with_engine (fun t ->
      let port = Engine.port t in
      with_client t (fun c ->
          ignore (call_ok c (request ~op:Proto.Health ~queries:[] ())));
      Engine.request_drain t;
      Engine.wait t;
      match Client.connect ~port () with
      | Error _ -> ()
      | Ok c ->
        (* accepted by a lingering backlog at the OS level at worst; the
           session must be closed without an answer *)
        let r = Client.call c (request ~op:Proto.Health ~queries:[] ()) in
        Client.close c;
        check_bool "drained server serves nothing" true (Result.is_error r))

let connect_raw t =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Engine.port t));
  fd

let test_engine_drain_half_open_client () =
  (* regression: a client that sends one header byte and then stalls
     used to pin its reader in a blocking [Unix.read], so the drain's
     reader join never returned; the grace deadline now bounds it *)
  let cfg = { test_config with Engine.drain_grace_ms = 200 } in
  with_engine ~cfg (fun t ->
      let fd = connect_raw t in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          ignore (Unix.write_substring fd "\x00" 0 1);
          (* the socket stays half-open while the server drains *)
          let t0 = Unix.gettimeofday () in
          Engine.request_drain t;
          Engine.wait t;
          check_bool "drain bounded despite half-open client" true
            (Unix.gettimeofday () -. t0 < 5.)))

let test_engine_drain_chatty_client () =
  (* a peer that keeps sending well-formed frames (each answered with
     Draining) must not extend the drain past the grace either *)
  let cfg = { test_config with Engine.drain_grace_ms = 200 } in
  with_engine ~cfg (fun t ->
      let fd = connect_raw t in
      let stop = Atomic.make false in
      let payload = J.to_string (request ~op:Proto.Health ~queries:[] ()) in
      let pump =
        Thread.create
          (fun () ->
            while not (Atomic.get stop) do
              (match Frame.write fd payload with
               | Ok () -> Thread.yield ()
               | Error _ -> Atomic.set stop true)
            done)
          ()
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          Thread.join pump;
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let t0 = Unix.gettimeofday () in
          Engine.request_drain t;
          Engine.wait t;
          check_bool "drain bounded under chatty client" true
            (Unix.gettimeofday () -. t0 < 5.)))

(* ---- client correlation hardening ---- *)

(* a scripted peer standing in for the server: accepts one connection
   and runs [serve] against it *)
let with_fake_server serve f =
  let lst = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lst Unix.SO_REUSEADDR true;
  Unix.bind lst (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lst 1;
  let port =
    match Unix.getsockname lst with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  let srv =
    Thread.create
      (fun () ->
        match Unix.accept lst with
        | fd, _ ->
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () -> serve fd)
        | exception Unix.Unix_error _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join srv;
      try Unix.close lst with Unix.Unix_error _ -> ())
    (fun () -> f port)

let with_fake_client serve f =
  with_fake_server serve (fun port ->
      match Client.connect ~port () with
      | Error e -> Alcotest.failf "connect: %s" (Fault.Error.to_string e)
      | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c))

let simple_req id = J.Obj [ ("id", J.Num (float_of_int id)); ("op", J.Str "health") ]

let tagged id tag =
  J.to_string (Proto.response_ok ~id [ ("tag", J.Str tag) ])

let test_client_drops_unsolicited () =
  (* a server emitting responses for ids that were never requested must
     not grow the parked list — they are dropped, and the real answer
     still correlates *)
  with_fake_client
    (fun fd ->
      match Frame.read fd with
      | Ok (Some _) ->
        for i = 1000 to 1200 do
          ignore (Frame.write fd (tagged i "unsolicited"))
        done;
        ignore (Frame.write fd (tagged 1 "real"))
      | _ -> ())
    (fun c ->
      match Client.call c (simple_req 1) with
      | Ok r ->
        check_bool "real answer correlates" true (Proto.response_id r = Some 1);
        check_bool "unsolicited tag not taken" true
          (Option.bind (J.member "tag" r) J.to_str = Some "real")
      | Error e -> Alcotest.failf "call: %s" (Fault.Error.to_string e))

let test_client_collect_unknown_id () =
  (* collecting an id that was never sent (or already collected) fails
     fast instead of eating the stream forever *)
  with_fake_client
    (fun fd -> ignore (Frame.read fd))
    (fun c ->
      (match Client.collect c 42 with
       | Error (Fault.Error.Protocol _) -> ()
       | Error e -> Alcotest.failf "wrong error: %s" (Fault.Error.to_string e)
       | Ok _ -> Alcotest.fail "phantom response for unsent id");
      (* unblock the fake server's read *)
      ignore (Client.send c (simple_req 9)))

let test_client_resend_purges_stale () =
  (* a retry that reuses its caller-supplied id must not collect the
     parked response from its previous attempt *)
  with_fake_client
    (fun fd ->
      let r1 = Frame.read fd in
      let r2 = Frame.read fd in
      match (r1, r2) with
      | Ok (Some _), Ok (Some _) ->
        ignore (Frame.write fd (tagged 7 "stale"));
        ignore (Frame.write fd (tagged 8 "other"));
        (match Frame.read fd with
         | Ok (Some _) -> ignore (Frame.write fd (tagged 7 "fresh"))
         | _ -> ())
      | _ -> ())
    (fun c ->
      (match Client.send c (simple_req 7) with
       | Ok id -> check_int "caller id kept" 7 id
       | Error e -> Alcotest.failf "send: %s" (Fault.Error.to_string e));
      ignore (Client.send c (simple_req 8));
      (* collecting 8 first parks the stale answer to 7 *)
      (match Client.collect c 8 with
       | Ok r -> check_bool "8 answered" true (Proto.response_id r = Some 8)
       | Error e -> Alcotest.failf "collect 8: %s" (Fault.Error.to_string e));
      (* the retry: resending id 7 purges the stale parked response *)
      ignore (Client.send c (simple_req 7));
      match Client.collect c 7 with
      | Ok r ->
        check_str "retry gets the fresh attempt's answer" "fresh"
          (Option.value ~default:"?" (Option.bind (J.member "tag" r) J.to_str))
      | Error e -> Alcotest.failf "collect 7: %s" (Fault.Error.to_string e))

(* ---- restart ---- *)

(* SUM/AVG make magnitude a HOM column of the result scheme: the one
   query log whose encryptor holds Paillier state *)
let hom_queries =
  [ "SELECT class, SUM(magnitude) FROM photoobj GROUP BY class";
    "SELECT class, AVG(magnitude) FROM photoobj GROUP BY class";
    "SELECT objid, ra FROM photoobj WHERE ra BETWEEN 100 AND 200" ]

let test_restart_identical () =
  let encrypt_once () =
    with_engine (fun t ->
        with_client t (fun c ->
            call_ok c
              (request ~id:1 ~op:Proto.Encrypt ~measure:Distance.Measure.Result
                 ~queries:hom_queries ())))
  in
  let first = encrypt_once () in
  check_str "ok" "ok" (Proto.response_status first);
  check_str "fresh engines byte-identical" (J.to_string first)
    (J.to_string (encrypt_once ()))

(* ---- registration ---- *)

let () =
  Alcotest.run "server"
    [ ("frame",
       [ Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
         Alcotest.test_case "clean EOF" `Quick test_frame_clean_eof;
         Alcotest.test_case "truncated header" `Quick
           test_frame_truncated_header;
         Alcotest.test_case "truncated payload" `Quick
           test_frame_truncated_payload;
         Alcotest.test_case "oversized prefix" `Quick
           test_frame_oversized_prefix;
         Alcotest.test_case "oversized write" `Quick
           test_frame_write_oversized ]);
      ("proto",
       [ Alcotest.test_case "defaults" `Quick test_parse_request_defaults;
         Alcotest.test_case "garbage typed" `Quick test_parse_request_garbage;
         Alcotest.test_case "bounded fields" `Quick test_parse_request_bounds;
         Alcotest.test_case "render/parse inverse" `Quick
           test_render_parse_inverse;
         Alcotest.test_case "response shapes" `Quick test_response_shapes;
         Alcotest.test_case "exact numbers on the wire" `Quick
           test_wire_numbers_exact ]);
      ("fuzz", List.map (fun t -> QCheck_alcotest.to_alcotest t) fuzz_properties);
      ("admission",
       [ Alcotest.test_case "sheds when full" `Quick test_admission_sheds;
         Alcotest.test_case "drain finishes backlog" `Quick
           test_admission_drain;
         Alcotest.test_case "injected shed" `Quick
           test_admission_injected_shed ]);
      ("engine",
       [ Alcotest.test_case "ops end-to-end" `Quick test_engine_ops;
         Alcotest.test_case "warm cache identical" `Quick
           test_engine_warm_cache_identical;
         Alcotest.test_case "typed errors keep session" `Quick
           test_engine_typed_errors;
         Alcotest.test_case "mid-request disconnect" `Quick
           test_engine_mid_request_disconnect;
         Alcotest.test_case "queue deadline" `Quick test_engine_queue_deadline;
         Alcotest.test_case "degraded mine partial" `Quick
           test_engine_degraded_mine;
         Alcotest.test_case "armed matrix eval partial" `Quick
           test_engine_dist_matrix_partial;
         Alcotest.test_case "matrix bound is protocol" `Quick
           test_engine_matrix_bound;
         Alcotest.test_case "mine k out of range" `Quick
           test_engine_mine_k_range;
         Alcotest.test_case "retries and deadline bounded" `Quick
           test_engine_wire_bounds;
         Alcotest.test_case "index fallback visible" `Quick
           test_engine_index_fallback_visible;
         Alcotest.test_case "kmedoids index falls back" `Quick
           test_engine_kmedoids_index_fallback;
         Alcotest.test_case "drain answers backlog" `Quick
           test_engine_drain_answers_backlog;
         Alcotest.test_case "rejects after drain" `Quick
           test_engine_rejects_after_drain;
         Alcotest.test_case "drain bounded: half-open client" `Quick
           test_engine_drain_half_open_client;
         Alcotest.test_case "drain bounded: chatty client" `Quick
           test_engine_drain_chatty_client ]);
      ("client",
       [ Alcotest.test_case "drops unsolicited ids" `Quick
           test_client_drops_unsolicited;
         Alcotest.test_case "collect unknown id fails fast" `Quick
           test_client_collect_unknown_id;
         Alcotest.test_case "resend purges stale parked" `Quick
           test_client_resend_purges_stale ]);
      ("restart",
       [ Alcotest.test_case "fresh engines answer a result encrypt byte-identically"
           `Slow test_restart_identical ]) ]

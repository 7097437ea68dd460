(* The end-to-end [dpe_serve] benchmark: an in-process [Server.Engine]
   driven by [Server.Client] closed loops (one connection, two on the
   mixed workload), every response checked outside the timed interval.

   Untraced run: set up [setup_reps] times (server start, warm-up, the
   server-side encryption of the mine logs) and report the median
   set-up time, then run the closed loops for the requested seconds and
   report throughput, round-trip percentiles and the process's top
   heap.

   Traced run ({!Layers}): the same loops on a fixed request count,
   once with telemetry off and once with it on, then a replay of every
   traced request's layer calls from this file's side. *)

module J = Obs.Json
module P = Server.Proto
module M = Distance.Measure

let master = "servebench"
let setup_reps = 3

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt
let ms ns = float_of_int ns /. 1e6

(* ---- statistics ---- *)

(* linear interpolation between closest ranks *)
let quantile q xs =
  match List.sort Float.compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (Array.length a - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* ---- responses ---- *)

let status_ok r = P.response_status r = "ok"

let strings_of name r =
  match Option.bind (J.member name r) J.to_list with
  | None -> []
  | Some items -> List.map J.to_str items

let labels_of r =
  match Option.bind (J.member "labels" r) J.to_list with
  | None -> None
  | Some items ->
    let ints = List.filter_map J.to_int items in
    if List.length ints = List.length items then Some (Array.of_list ints) else None

let call_ok c json =
  match Server.Client.call c json with
  | Ok r when status_ok r -> r
  | Ok r -> fail "set-up request failed: %s" (P.render r)
  | Error e -> fail "set-up request failed: %s" (Fault.Error.to_string e)

(* ---- set-up ---- *)

type env = {
  engine : Server.Engine.t;
  conns : Server.Client.t array;
  logs : Gen.mine_log array;
  cipher : string list array;  (** the server's ciphertexts of the mine logs *)
  warm : Gen.enc_req list;     (** the warm-up requests the server saw *)
}

let connect engine =
  match Server.Client.connect ~port:(Server.Engine.port engine) () with
  | Ok c -> c
  | Error e -> fail "connect: %s" (Fault.Error.to_string e)

let setup ~seed workload =
  let engine =
    match Server.Engine.start { Server.Engine.default_config with master } with
    | Ok e -> e
    | Error e -> fail "server start: %s" (Fault.Error.to_string e)
  in
  let conns =
    Array.init (if workload = Gen.Mixed then 2 else 1) (fun _ -> connect engine)
  in
  let c = conns.(0) in
  let warm = if Gen.sends_encrypt workload then Gen.warmup ~seed else [] in
  List.iteri (fun i r -> ignore (call_ok c (Gen.encrypt_json ~id:(i + 1) r))) warm;
  let logs = Gen.mine_logs workload in
  let cipher =
    Array.mapi
      (fun i (l : Gen.mine_log) ->
        let r =
          call_ok c
            (Gen.request ~id:(1000 + i) ~op:P.Encrypt ~tenant:Gen.miner
               ~measure:l.m_measure (Gen.mine_plain ~seed l))
        in
        List.map
          (function Some s -> s | None -> fail "set-up ciphertext missing")
          (strings_of "ciphertexts" r))
      logs
  in
  { engine; conns; logs; cipher; warm }

let stop env =
  Array.iter Server.Client.close env.conns;
  Server.Engine.request_drain env.engine;
  Server.Engine.wait env.engine

(* ---- closed loops ---- *)

type outcome =
  | Cipher of string option list
      (** only the ciphertexts: the request is regenerated from the seed
          for the check, so the stored samples stay small and the top
          heap reflects the serving, not the bookkeeping *)
  | Labels of int array
  | Failed_resp of string

type sample = {
  op : P.op;
  idx : int;        (** index in the op's request stream *)
  t_send : int;     (** [Obs.now_ns] just before the request is framed *)
  t_recv : int;     (** ... and just after its response is parsed *)
  ok : bool;        (** status ok (the output check comes later) *)
  outcome : outcome;
  wire : (J.t * J.t) option;  (** request and response, when [keep] *)
}

let lat_ms s = ms (s.t_recv - s.t_send)

(* one connection's closed loop: request [i] is sent only after
   response [i - 1] arrived, until [stop i] *)
let loop ?(keep = false) ?(on_sample = fun (_ : sample) -> ()) conn ~op ~stop
    ~(request : int -> J.t * (J.t -> outcome)) =
  let acc = ref [] in
  let i = ref 0 in
  while not (stop !i) do
    let json, decode = request !i in
    let t_send = Obs.now_ns () in
    let r = Server.Client.call conn json in
    let t_recv = Obs.now_ns () in
    let ok, outcome, response =
      match r with
      | Ok r when status_ok r -> (true, decode r, r)
      | Ok r -> (false, Failed_resp (P.render r), r)
      | Error e -> (false, Failed_resp (Fault.Error.to_string e), J.Null)
    in
    let s =
      { op; idx = !i; t_send; t_recv; ok; outcome;
        wire = (if keep then Some (json, response) else None) }
    in
    on_sample s;
    acc := s :: !acc;
    incr i
  done;
  List.rev !acc

let encrypt_request ~seed i =
  let r = Gen.encrypt ~seed i in
  ( Gen.encrypt_json ~id:(i + 1) r,
    fun resp -> Cipher (strings_of "ciphertexts" resp) )

let mine_request workload env i =
  let r = Gen.mine workload i in
  ( Gen.mine_json ~id:(i + 1) ~logs:env.logs ~cipher:env.cipher r,
    fun resp ->
      match labels_of resp with
      | Some l -> Labels l
      | None -> Failed_resp "mine response without labels" )

(* Stop rules.  [Until_ns t] runs each single-connection loop past [t]
   to the end of its current cycle, so every run sends whole cycles of
   the stream; on [mixed] the encrypt loop runs for as long as the mine
   loop does.  [Count n] sends exactly [n] requests per loop. *)
type budget = Until_ns of int | Count of int * int  (** encrypt, mine *)

let drive ?keep ?on_sample ~seed workload env budget =
  let enc_stop, mine_stop =
    match budget with
    | Until_ns t ->
      let cycle_stop cycle i = Obs.now_ns () >= t && i mod cycle = 0 in
      (cycle_stop Gen.enc_cycle, cycle_stop (Gen.mine_cycle_of workload))
    | Count (ne, nm) -> ((fun i -> i >= ne), fun i -> i >= nm)
  in
  let run_enc ?(stop = enc_stop) conn =
    loop ?keep ?on_sample conn ~op:P.Encrypt ~stop ~request:(encrypt_request ~seed)
  in
  let run_mine conn =
    loop ?keep ?on_sample conn ~op:P.Mine ~stop:mine_stop
      ~request:(mine_request workload env)
  in
  match workload with
  | Gen.Encrypt -> run_enc env.conns.(0)
  | Gen.Mine | Gen.Mine_index -> run_mine env.conns.(0)
  | Gen.Mixed ->
    let mine_done = Atomic.make false in
    let mined = ref [] in
    let th =
      Thread.create
        (fun () ->
          Fun.protect
            ~finally:(fun () -> Atomic.set mine_done true)
            (fun () -> mined := run_mine env.conns.(1)))
        ()
    in
    let stop =
      match budget with
      | Until_ns _ -> fun _ -> Atomic.get mine_done
      | Count _ -> enc_stop
    in
    let encs = run_enc ~stop env.conns.(0) in
    Thread.join th;
    encs @ !mined

(* ---- output checks (outside the timed interval) ---- *)

let parse_log queries =
  List.map
    (fun q ->
      match Sqlir.Parser.parse_result q with
      | Ok a -> a
      | Error e -> fail "generated query does not parse: %s" e)
    queries

(* the same algorithm parameters the server's dispatch uses *)
let run_algo (r : Gen.mine_req) dm =
  match r.algo with
  | "dbscan" -> Mining.Dbscan.run { Mining.Dbscan.eps = r.eps; min_pts = 3 } dm
  | "kmedoids" -> Mining.Kmedoids.run { Mining.Kmedoids.k = r.k; max_iter = 50 } dm
  | "outliers" ->
    Array.map
      (fun b -> if b then 1 else 0)
      (Mining.Outlier.run { Mining.Outlier.p = 0.95; d = r.eps } dm)
  | "clink" -> Mining.Hier.cut_k r.k dm
  | a -> fail "unknown algo %s" a

(* A decrypting twin of the server's tenant state: the same master, and
   every (tenant, measure) scheme fixed by the same warm-up log. *)
let key_owner warm =
  let t = Server.Tenant.create ~master in
  List.iter
    (fun (r : Gen.enc_req) ->
      ignore (Server.Tenant.encryptor t ~tenant:r.tenant ~measure:r.measure (parse_log r.queries)))
    warm;
  t

let decrypts_to enc plain = function
  | None -> false
  | Some c -> (
    match Sqlir.Parser.parse_result c with
    | Error _ -> false
    | Ok q -> (
      match Dpe.Encryptor.decrypt_query enc q with
      | Ok p -> Sqlir.Printer.to_string p = plain
      | Error _ -> false))

(* expected labels per mine request index: the plaintext log's labels
   for the matrix workloads (identical mining), the matrix engine's
   DBSCAN labels over the ciphertexts for the index workload *)
let mine_reference ~seed workload env =
  let matrices =
    Array.mapi
      (fun i (l : Gen.mine_log) ->
        let log =
          if workload = Gen.Mine_index then env.cipher.(i) else Gen.mine_plain ~seed l
        in
        lazy (M.matrix M.default_ctx l.m_measure (parse_log log)))
      env.logs
  in
  let memo = Hashtbl.create 16 in
  fun i ->
    let r = Gen.mine workload i in
    let key = (r.log, r.algo) in
    match Hashtbl.find_opt memo key with
    | Some l -> l
    | None ->
      let l = run_algo r (Lazy.force matrices.(r.log)) in
      Hashtbl.replace memo key l;
      l

(* the samples whose output check fails, each with a reason *)
let check ~seed workload env samples =
  let owner = lazy (key_owner env.warm) in
  let reference = lazy (mine_reference ~seed workload env) in
  List.filter_map
    (fun s ->
      let why =
        match s.outcome with
        | Failed_resp e -> Some e
        | Cipher ciphers ->
          let r = Gen.encrypt ~seed s.idx in
          let enc =
            Server.Tenant.encryptor (Lazy.force owner) ~tenant:r.tenant
              ~measure:r.measure []
          in
          if List.length r.queries = List.length ciphers
             && List.for_all2 (decrypts_to enc) r.queries ciphers
          then None
          else Some (Printf.sprintf "encrypt %d: a ciphertext does not decrypt" s.idx)
        | Labels labels ->
          if labels = Lazy.force reference s.idx then None
          else Some (Printf.sprintf "mine %d: labels differ from the reference" s.idx)
      in
      Option.map (fun w -> (s, w)) why)
    samples

(* ---- the stamp every result carries ---- *)

(* the OS's count of online CPUs, not the runtime's recommendation *)
let host_cpus () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> 0
  | ic ->
    let n = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.length line >= 9 && String.sub line 0 9 = "processor" then incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n

let stamp ~seed workload =
  J.Obj
    [ ("workload", J.Str (Gen.workload_to_string workload));
      ("seed", J.Str seed);
      ("pool_size", J.Num (float_of_int (Parallel.Pool.size (Parallel.Pool.global ()))));
      ("ocaml", J.Str Sys.ocaml_version);
      ("host_cpus", J.Num (float_of_int (host_cpus ()))) ]

(* ---- result ---- *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  report : (string * J.t) list;  (** detail printed before the result line *)
}

let num f = J.Num f
let int n = J.Num (float_of_int n)

let result_line r =
  P.render
    (J.Obj
       [ ("correct", J.Bool (r.failed = 0));
         ("attempted", int r.attempted);
         ("failed", int r.failed);
         ("metrics",
          J.Obj
            (List.map
               (fun m -> (m.name, J.Obj [ ("value", num m.value); ("unit", J.Str m.unit_) ]))
               r.metrics)) ])

let latency_report samples =
  let per op =
    let xs = List.filter_map (fun s -> if s.op = op then Some (lat_ms s) else None) samples in
    ( P.op_to_string op,
      J.Obj
        [ ("samples", int (List.length xs));
          ("p50_ms", num (median xs));
          ("p90_ms", num (quantile 0.9 xs)) ] )
  in
  J.Obj [ per P.Encrypt; per P.Mine ]

(* median round trip per request kind (encrypt measure; mine measure,
   size and algorithm): which kind sets which percentile *)
let kind_report workload samples =
  let kind s =
    match s.op with
    | P.Encrypt -> "encrypt/" ^ M.to_string (Gen.enc_measure s.idx)
    | _ ->
      let r = Gen.mine workload s.idx in
      let l = (Gen.mine_logs workload).(r.log) in
      Printf.sprintf "mine/%s/%d/%s" (M.to_string l.m_measure) l.n r.algo
  in
  let kinds = List.sort_uniq String.compare (List.map kind samples) in
  J.Obj
    (List.map
       (fun k ->
         let xs = List.filter_map (fun s -> if kind s = k then Some (lat_ms s) else None) samples in
         (k, J.Obj [ ("samples", int (List.length xs)); ("p50_ms", num (median xs)) ]))
       kinds)

(* Requests completed with an ok status per second, over the whole run:
   a plain mean, so a slow phase of the host moves the figure in
   proportion to its length instead of flipping a median. *)
let throughput samples =
  match samples with
  | [] -> 0.
  | _ ->
    let t0 = List.fold_left (fun m s -> min m s.t_send) max_int samples in
    let t1 = List.fold_left (fun m s -> max m s.t_recv) 0 samples in
    let oks = List.length (List.filter (fun s -> s.ok) samples) in
    float_of_int oks /. (float_of_int (t1 - t0) /. 1e9)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ---- untraced run ---- *)

let timed_setups ~seed workload =
  let rec go k times =
    let t0 = Obs.now_ns () in
    let env = setup ~seed workload in
    let dt = Obs.now_ns () - t0 in
    if k = 1 then (env, dt :: times)
    else begin
      stop env;
      go (k - 1) (dt :: times)
    end
  in
  go setup_reps []

let run_untraced ~seed ~seconds workload =
  let env, setup_times = timed_setups ~seed workload in
  (* every run enters the timed interval at the same point of the GC
     cycle, with set-up garbage gone *)
  Gc.compact ();
  let t0 = Obs.now_ns () in
  let samples = drive ~seed workload env (Until_ns (t0 + (seconds * 1_000_000_000))) in
  let heap = heap_peak_mb () in
  stop env;
  let bad = check ~seed workload env samples in
  let attempted = List.length samples in
  let failed = List.length bad in
  let lats = List.map lat_ms samples in
  let setup_s = median (List.map (fun ns -> float_of_int ns /. 1e9) setup_times) in
  { attempted;
    failed;
    metrics =
      [ { name = "setup_s"; value = setup_s; unit_ = "s" };
        { name = "throughput_rps"; value = throughput samples; unit_ = "1/s" };
        { name = "p50_ms"; value = median lats; unit_ = "ms" };
        { name = "p90_ms"; value = quantile 0.9 lats; unit_ = "ms" };
        { name = "heap_peak_mb"; value = heap; unit_ = "MB" } ];
    report =
      [ ("stamp", stamp ~seed workload);
        ("samples", int attempted);
        ("error_rate", num (float_of_int failed /. float_of_int (max 1 attempted)));
        ("setup_s_reps", J.Arr (List.map (fun ns -> num (float_of_int ns /. 1e9)) setup_times));
        ("latency", latency_report samples);
        ("latency_by_kind", kind_report workload samples);
        ("check_failures",
         J.Arr (List.filteri (fun i _ -> i < 5) (List.map (fun (_, w) -> J.Str w) bad))) ] }

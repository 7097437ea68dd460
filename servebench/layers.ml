(* The traced run: per-layer costs and counts.

   Three phases on fresh servers, each sending the same fixed request
   stream ([Count]):
   1. telemetry off — the untraced throughput, and the runtime's GC
      counts;
   2. telemetry on — the library's registered counters, and the
      [serve.<op>] span the server records around each request, paired
      with the client round trip that carried it;
   3. a replay of every phase-2 request through each layer's public
      functions, one span per layer call, emitted from this file (right
      after each round trip on one connection, after the loops on
      mixed).  The replayed encryptors start from the state the phase-2
      server had (same master, same warm-up, same request order), so
      they do the same work.

   [trace.coverage] is, per request, the replayed layers' total over
   the paired [serve.<op>] span, as the median over requests (a GC
   slice or a burst of outside load lands in one side of one request,
   and must not swing a short traced run); {!coverage_tolerance}
   states how far from 1 it may drift on a single connection.  On
   mixed the span also holds the time the other connection's client
   and reader threads run on the same runtime lock, so coverage there
   is reported as measured.  The protocol layer runs outside the span
   (request parsing on the reader thread, rendering on the send path),
   so it is reported but not summed. *)

module J = Obs.Json
module P = Server.Proto
module M = Distance.Measure
open Bench

let coverage_tolerance = 0.2

(* requests per loop: whole cycles, about [seconds / 3] of work per
   phase at this host's rates, so the traced run stays within budget;
   a pure function of [seconds], so two runs with the same arguments
   send the same stream and the counts below repeat exactly *)
let counts ~seconds workload =
  let cycles per_cycle_s = max 1 (int_of_float (float_of_int seconds /. 3. /. per_cycle_s)) in
  match workload with
  | Gen.Encrypt -> (Gen.enc_cycle * cycles 0.4, 0)
  | Gen.Mine -> (0, Gen.mine_cycle * cycles 1.8)
  | Gen.Mine_index -> (0, Gen.mine_cycle_of Gen.Mine_index * cycles 1.2)
  | Gen.Mixed ->
    (* about one encrypt per mine request: the two loops alternate on
       the compute lock, so they end together *)
    let c = cycles 3.5 in
    (Gen.enc_cycle * c, Gen.mine_cycle * c)

let counters =
  [ "kitdpe.server.shed"; "kitdpe.crypto.ope.cache_hits"; "kitdpe.crypto.ope.cache_misses";
    "kitdpe.crypto.det.cache_hits"; "kitdpe.crypto.det.cache_misses";
    "kitdpe.crypto.paillier.modexp"; "kitdpe.distance.measure.evals";
    "kitdpe.index.queries"; "kitdpe.index.probes"; "kitdpe.mining.hier.cluster_dists";
    "kitdpe.parallel.pool.tasks" ]

let read_counters () =
  List.map (fun n -> (n, Obs.Metric.value (Obs.Registry.counter n))) counters

(* ---- phase 3: layer replay ---- *)

(* one span per layer call; returns the result and its duration *)
let layer name f =
  let t0 = Obs.now_ns () in
  let r = f () in
  let dt = Obs.now_ns () - t0 in
  Obs.Span.record ~cat:"servebench" ~name ~ts_ns:t0 ~dur_ns:dt ();
  (r, dt)

(* per-layer accumulators: total ns and the number of requests that
   called the layer *)
type acc = { mutable ns : int; mutable reqs : int }

let accs = Hashtbl.create 32

let add name dt =
  let a =
    match Hashtbl.find_opt accs name with
    | Some a -> a
    | None ->
      let a = { ns = 0; reqs = 0 } in
      Hashtbl.replace accs name a;
      a
  in
  a.ns <- a.ns + dt;
  a.reqs <- a.reqs + 1

let mean_ms name =
  match Hashtbl.find_opt accs name with
  | Some a when a.reqs > 0 -> ms a.ns /. float_of_int a.reqs
  | _ -> 0.

(* the server derives the result measure's HOM database from the log's
   relations; the benchmark's logs are all skyserver *)
let hom_db = lazy (Workload.Gen_db.skyserver ~seed:"serve" ~rows:48)

let replay_tenant warm =
  let t = Server.Tenant.create ~master in
  List.iter
    (fun (r : Gen.enc_req) ->
      let log = parse_log r.queries in
      let enc = Server.Tenant.encryptor t ~tenant:r.tenant ~measure:r.measure log in
      if r.measure = M.Result && Dpe.Encryptor.noise_pool enc = None then
        ignore (Dpe.Db_encryptor.prewarm_hom_noise_r enc (Lazy.force hom_db));
      List.iter (fun q -> ignore (Dpe.Encryptor.encrypt_query enc q)) log)
    warm;
  t

let proto s =
  match s.wire with
  | None -> ()
  | Some (request, response) ->
    let payload = P.render request in
    let (_ : (P.request, _) Stdlib.result), a =
      layer "server.proto" (fun () -> P.parse_request payload)
    in
    let (_ : string), b = layer "server.proto" (fun () -> P.render response) in
    add "server.proto" (a + b)

let parse queries =
  let log, dt = layer "sqlir.parse" (fun () -> parse_log queries) in
  add "sqlir.parse" dt;
  (log, dt)

let features arr =
  let f, dt =
    layer "distance.features" (fun () ->
        match Distance.Features.build_r arr with
        | Ok f -> f
        | Error _ -> fail "replayed feature build failed")
  in
  add "distance.features" dt;
  (f, dt)

(* returns the summed layer time inside the [serve.<op>] span *)
let replay_encrypt tenant (r : Gen.enc_req) =
  let log, t_parse = parse r.queries in
  let enc = Server.Tenant.encryptor tenant ~tenant:r.tenant ~measure:r.measure log in
  let ciphers, t_enc =
    List.fold_left
      (fun (cs, total) q ->
        let c, dt = layer "dpe.encrypt" (fun () -> Dpe.Encryptor.encrypt_query enc q) in
        (c :: cs, total + dt))
      ([], 0) log
  in
  add "dpe.encrypt" t_enc;
  let (_ : string list), t_print =
    layer "sqlir.print" (fun () -> List.rev_map Sqlir.Printer.to_string ciphers)
  in
  add "sqlir.print" t_print;
  t_parse + t_enc + t_print

let replay_mine workload env i =
  let r = Gen.mine workload i in
  let measure = env.logs.(r.log).m_measure in
  let log, t_parse = parse env.cipher.(r.log) in
  let arr = Array.of_list log in
  let algo_layer = "mining." ^ r.algo in
  match r.engine with
  | Some "index" ->
    let feats, t_feat = features arr in
    let tree, t_build =
      layer "index.build" (fun () ->
          match Index.Space.of_measure measure feats with
          | Some sp -> Index.Vp_tree.build ~seed:"serve" sp
          | None -> fail "no index space for %s" (M.to_string measure))
    in
    add "index.build" t_build;
    let range_ns = ref 0 in
    let range q =
      let v, dt = layer "index.range" (fun () -> Index.Vp_tree.range tree ~eps:r.eps q) in
      range_ns := !range_ns + dt;
      v
    in
    let (_ : int array), t_run =
      layer algo_layer (fun () ->
          Mining.Dbscan.run_index ~min_pts:3 { Mining.Dbscan.ri_n = Array.length arr; range })
    in
    add "index.range" !range_ns;
    add algo_layer (t_run - !range_ns);
    t_parse + t_feat + t_build + t_run
  | _ ->
    (* the matrix build contains its own feature build; that build is
       timed again on its own as a sub-layer, outside the sum *)
    let (_ : Distance.Features.t * int) = features arr in
    let dm, t_matrix =
      layer "distance.matrix" (fun () ->
          match M.matrix_r M.default_ctx measure log with
          | Ok dm -> dm
          | Error _ -> fail "replayed matrix build failed")
    in
    add "distance.matrix" t_matrix;
    let (_ : int array), t_algo = layer algo_layer (fun () -> run_algo r dm) in
    add algo_layer t_algo;
    t_parse + t_matrix + t_algo

(* ---- the traced run ---- *)

let delta before after name = List.assoc name after - List.assoc name before

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let per a b = if b = 0 then 0. else a /. float_of_int b

(* the [serve.<op>] span inside each sample's round trip *)
let pair spans s =
  let name = "serve." ^ P.op_to_string s.op in
  List.find_opt
    (fun (e : Obs.Span.event) ->
      e.name = name && e.ts_ns >= s.t_send && e.ts_ns + e.dur_ns <= s.t_recv)
    spans

let run_traced ~seed ~seconds workload =
  Hashtbl.reset accs;
  let ne, nm = counts ~seconds workload in
  let budget = Count (ne, nm) in
  (* phase 1: telemetry off *)
  Obs.set_enabled false;
  let env = setup ~seed workload in
  Gc.compact ();
  let gc0 = Gc.quick_stat () in
  let untraced = drive ~seed workload env budget in
  let gc1 = Gc.quick_stat () in
  stop env;
  (* phase 2: telemetry on *)
  Obs.set_enabled true;
  Obs.Span.set_capacity (1 lsl 16);
  let env = setup ~seed workload in
  let tenant = lazy (replay_tenant env.warm) in
  let replayed = ref [] in
  let replay s =
    if s.ok then begin
      proto s;
      let inside =
        match s.outcome with
        | Cipher _ -> replay_encrypt (Lazy.force tenant) (Gen.encrypt ~seed s.idx)
        | Labels _ -> replay_mine workload env s.idx
        | Failed_resp _ -> 0
      in
      replayed := (s, inside) :: !replayed
    end
  in
  (* A single connection replays each request right after its round
     trip, so host speed drifts cancel out of the coverage ratio.  On
     mixed an inline replay would compete with the other connection's
     request, so it runs after the loops. *)
  let inline = workload <> Gen.Mixed in
  Gc.compact ();
  Obs.Registry.reset ();
  Obs.Span.clear ();
  (* counters add up over the round trips only, not over the replays,
     which move the same counters *)
  let lock = Mutex.create () in
  let totals = Hashtbl.create 16 in
  let index_work = ref [] in
  let last = ref (read_counters ()) in
  let on_sample s =
    Mutex.lock lock;
    let now = read_counters () in
    let dn = delta !last now in
    List.iter
      (fun n -> Hashtbl.replace totals n (dn n + Option.value (Hashtbl.find_opt totals n) ~default:0))
      counters;
    (match s.outcome with
     | Labels _ when (Gen.mine workload s.idx).engine = Some "index" ->
       let n = env.logs.((Gen.mine workload s.idx).log).n in
       index_work := (dn "kitdpe.index.queries", dn "kitdpe.index.probes", n) :: !index_work
     | _ -> ());
    if inline then replay s;
    last := read_counters ();
    Mutex.unlock lock
  in
  let traced = drive ~keep:true ~on_sample ~seed workload env budget in
  let spans = Obs.Span.events () in
  let dropped = Obs.Span.dropped () in
  stop env;
  if not inline then List.iter replay traced;
  let bad = check ~seed workload env traced in
  let ratios = ref [] and wait_ns = ref 0 and paired = ref 0 in
  List.iter
    (fun (s, inside) ->
      match pair spans s with
      | Some e ->
        incr paired;
        ratios := ratio inside e.dur_ns :: !ratios;
        wait_ns := !wait_ns + (s.t_recv - s.t_send - e.dur_ns)
      | None -> ())
    !replayed;
  Obs.set_enabled false;
  let d n = Option.value (Hashtbl.find_opt totals n) ~default:0 in
  let n_enc = List.length (List.filter (fun s -> s.op = P.Encrypt) traced) in
  let n_mine = List.length (List.filter (fun s -> s.op = P.Mine) traced) in
  let n_clink =
    List.length
      (List.filter
         (fun s -> match s.outcome with Labels _ -> (Gen.mine workload s.idx).algo = "clink" | _ -> false)
         traced)
  in
  let iq = List.fold_left (fun a (q, _, _) -> a + q) 0 !index_work in
  let ip = List.fold_left (fun a (_, p, _) -> a + p) 0 !index_work in
  let ipairs = List.fold_left (fun a (q, _, n) -> a + (q * (n - 1))) 0 !index_work in
  let hit h m = ratio (d h) (d h + d m) in
  let coverage = median !ratios in
  (* requests per second of round trip: the replay between round trips
     is the benchmark's own work, not tracing overhead *)
  let rate samples =
    let oks = List.filter (fun s -> s.ok) samples in
    let busy = List.fold_left (fun a s -> a + (s.t_recv - s.t_send)) 0 oks in
    if busy = 0 then 0. else float_of_int (List.length oks) /. (float_of_int busy /. 1e9)
  in
  let overhead =
    let u = rate untraced in
    if u = 0. then 0. else rate traced /. u
  in
  let gc_reqs = List.length untraced in
  let m name value unit_ = { name; value; unit_ } in
  let lm name = m (name ^ "_ms") (mean_ms name) "ms" in
  let metrics =
    [ m "server.queue_wait_ms" (per (ms !wait_ns) !paired) "ms";
      lm "server.proto";
      m "server.shed" (float_of_int (d "kitdpe.server.shed")) "count";
      lm "sqlir.parse";
      lm "sqlir.print";
      lm "dpe.encrypt";
      m "crypto.ope.hit_ratio" (hit "kitdpe.crypto.ope.cache_hits" "kitdpe.crypto.ope.cache_misses") "ratio";
      m "crypto.det.hit_ratio" (hit "kitdpe.crypto.det.cache_hits" "kitdpe.crypto.det.cache_misses") "ratio";
      m "crypto.ope.misses_per_req" (ratio (d "kitdpe.crypto.ope.cache_misses") n_enc) "count";
      m "crypto.det.misses_per_req" (ratio (d "kitdpe.crypto.det.cache_misses") n_enc) "count";
      m "crypto.paillier.modexp" (float_of_int (d "kitdpe.crypto.paillier.modexp")) "count";
      lm "distance.features";
      lm "distance.matrix";
      m "distance.evals_per_req" (ratio (d "kitdpe.distance.measure.evals") n_mine) "count";
      lm "index.build";
      lm "index.range";
      m "index.probes_per_query" (ratio ip iq) "count";
      m "index.probe_ratio" (ratio ip ipairs) "ratio";
      lm "mining.clink";
      lm "mining.kmedoids";
      lm "mining.dbscan";
      lm "mining.outliers";
      m "mining.hier.cluster_dists" (ratio (d "kitdpe.mining.hier.cluster_dists") n_clink) "count";
      m "parallel.tasks_per_req" (ratio (d "kitdpe.parallel.pool.tasks") (n_enc + n_mine)) "count";
      m "gc.minor_mwords_per_req"
        (per ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6) gc_reqs) "Mwords";
      m "gc.major_collections" (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)) "count";
      m "trace.coverage" coverage "ratio";
      m "trace.overhead" overhead "ratio" ]
  in
  { attempted = List.length traced;
    failed = List.length bad;
    metrics;
    report =
      [ ("stamp", stamp ~seed workload);
        ("requests", J.Obj [ ("encrypt", int n_enc); ("mine", int n_mine) ]);
        ("paired_spans", int !paired);
        ("dropped_spans", int dropped);
        ("coverage_within_tolerance",
         J.Bool (workload = Gen.Mixed || Float.abs (coverage -. 1.) <= coverage_tolerance));
        ("coverage_tolerance", num coverage_tolerance);
        ("untraced_rps", num (rate untraced));
        ("traced_rps", num (rate traced));
        ("check_failures",
         J.Arr (List.filteri (fun i _ -> i < 5) (List.map (fun (_, w) -> J.Str w) bad))) ] }

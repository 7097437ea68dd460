(* kitdpe — command-line front end for the DPE library.

   A log file is plain text: one SQL query per line, empty lines and lines
   starting with '#' ignored.

     dpe_cli generate --scenario skyserver -n 40 > log.sql
     dpe_cli profile log.sql
     dpe_cli select -m access-area log.sql
     dpe_cli encrypt -m token -p secret log.sql > cipher.sql
     dpe_cli decrypt -m token -p secret cipher.sql
     dpe_cli verify -m structure -p secret log.sql
     dpe_cli mine -m structure --algo clink -k 4 log.sql
     dpe_cli attack -m token -p secret log.sql
     dpe_cli stats -m access-area --trace trace.json log.sql *)

module M = Distance.Measure
open Cmdliner

(* ---- shared readers ---- *)

let read_lines path =
  let ic = if path = "-" then stdin else open_in path in
  let rec go acc =
    match input_line ic with
    | line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go acc else go (line :: acc)
    | exception End_of_file ->
      if path <> "-" then close_in ic;
      List.rev acc
  in
  go []

let read_log path =
  List.mapi
    (fun i line ->
      match Sqlir.Parser.parse_result line with
      | Ok q -> q
      | Error e ->
        Printf.eprintf "line %d: parse error: %s\n%!" (i + 1) e;
        exit 2)
    (read_lines path)

(* ---- common args ---- *)

let log_arg =
  let doc = "Query log file (one SQL query per line; '-' for stdin)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"LOG" ~doc)

let measure_conv =
  Arg.conv
    ( (fun s ->
        match M.of_string s with
        | Some m -> Ok m
        | None -> Error (`Msg ("unknown measure " ^ s))),
      fun fmt m -> Format.pp_print_string fmt (M.to_string m) )

let measure_arg =
  let doc = "Distance measure: token, structure, result, access-area, or \
             the extensions edit and clause." in
  Arg.(value & opt measure_conv M.Token & info [ "m"; "measure" ] ~docv:"MEASURE" ~doc)

let passphrase_arg =
  let doc = "Master passphrase for the keyring." in
  Arg.(value & opt string "kitdpe-demo" & info [ "p"; "passphrase" ] ~docv:"PASS" ~doc)

let seed_arg =
  let doc = "Deterministic generator seed." in
  Arg.(value & opt string "cli" & info [ "seed" ] ~doc)

let rows_arg =
  let doc = "Rows for the generated/derived database (result measure)." in
  Arg.(value & opt int 150 & info [ "rows" ] ~doc)

let scheme_of m log = Dpe.Selector.select m (Dpe.Log_profile.of_log log)

let encryptor_of m pass log =
  Dpe.Encryptor.create (Crypto.Keyring.of_passphrase pass) (scheme_of m log)

(* ---- commands ---- *)

let generate scenario n templates seed =
  let p = { Workload.Gen_query.n; templates; seed;
            caps = Workload.Gen_query.caps_for_measure M.Result } in
  let log =
    match scenario with
    | "retail" -> Workload.Gen_query.retail_log p
    | _ -> Workload.Gen_query.skyserver_log p
  in
  List.iter (fun q -> print_endline (Sqlir.Printer.to_string q)) log

let generate_cmd =
  let scenario =
    Arg.(value & opt string "skyserver"
         & info [ "scenario" ] ~doc:"skyserver or retail.")
  in
  let n = Arg.(value & opt int 40 & info [ "n" ] ~doc:"Number of queries.") in
  let templates =
    Arg.(value & opt int 4 & info [ "templates" ] ~doc:"Planted clusters.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic query log.")
    Term.(const generate $ scenario $ n $ templates $ seed_arg)

let profile path =
  let log = read_log path in
  Format.printf "%a" Dpe.Log_profile.pp (Dpe.Log_profile.of_log log)

let profile_cmd =
  Cmd.v
    (Cmd.info "profile" ~doc:"Analyze how a log uses each attribute.")
    Term.(const profile $ log_arg)

let select m path =
  let log = read_log path in
  Format.printf "%a" Dpe.Scheme.pp (scheme_of m log)

let select_cmd =
  Cmd.v
    (Cmd.info "select"
       ~doc:"Derive the appropriate DPE scheme (KIT-DPE step 3, Table I).")
    Term.(const select $ measure_arg $ log_arg)

let encrypt m pass path =
  let log = read_log path in
  let enc = encryptor_of m pass log in
  List.iter
    (fun q -> print_endline (Sqlir.Printer.to_string (Dpe.Encryptor.encrypt_query enc q)))
    log

let encrypt_cmd =
  Cmd.v
    (Cmd.info "encrypt" ~doc:"Encrypt a log under the measure's DPE scheme.")
    Term.(const encrypt $ measure_arg $ passphrase_arg $ log_arg)

let decrypt m pass plain_path cipher_path =
  (* the scheme is derived from the plaintext log's profile, which the key
     owner has; the ciphertext log comes back from the provider *)
  let plain_log = read_log plain_path in
  let cipher_log = read_log cipher_path in
  let enc = encryptor_of m pass plain_log in
  List.iter
    (fun q ->
      match Dpe.Encryptor.decrypt_query enc q with
      | Ok q' -> print_endline (Sqlir.Printer.to_string q')
      | Error e ->
        Printf.eprintf "decrypt error: %s\n%!" e;
        exit 3)
    cipher_log

let decrypt_cmd =
  let cipher =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CIPHER_LOG"
           ~doc:"Encrypted log file.")
  in
  Cmd.v
    (Cmd.info "decrypt" ~doc:"Decrypt an encrypted log (key owner).")
    Term.(const decrypt $ measure_arg $ passphrase_arg $ log_arg $ cipher)

let verify m pass seed rows path =
  let log = read_log path in
  let enc = encryptor_of m pass log in
  let plain_db, cipher_db =
    if m = M.Result then begin
      let db = Workload.Gen_db.for_log ~seed ~rows log in
      (Some db, Some (Dpe.Db_encryptor.encrypt_database enc db))
    end
    else (None, None)
  in
  let r = Dpe.Verdict.check_dpe ?plain_db ?cipher_db enc m log in
  Format.printf "%a@." Dpe.Verdict.pp_report r;
  exit (if r.Dpe.Verdict.ok then 0 else 1)

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Check Definition 1 on a log: encrypt it and compare all \
             pairwise distances.")
    Term.(const verify $ measure_arg $ passphrase_arg $ seed_arg $ rows_arg $ log_arg)

let trace_arg =
  let doc = "Write a Chrome trace_event JSON file of the run's spans \
             (open in chrome://tracing or ui.perfetto.dev); implies \
             telemetry on." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let write_trace = function
  | None -> ()
  | Some file ->
    Obs.Trace.write_file file;
    Printf.eprintf "wrote trace %s\n%!" file

let mine m algo k eps seed rows trace engine path =
  if trace <> None then Obs.set_enabled true;
  let log = read_log path in
  let plan =
    match
      Server.Mine_plan.plan ~measure:m ~algo ~engine ~n:(List.length log) ~k
    with
    | Ok plan -> plan
    | Error e ->
      Printf.eprintf "%s\n%!" (Fault.Error.to_string e);
      exit 2
  in
  let ctx =
    if m = M.Result then M.ctx_with_db (Workload.Gen_db.for_log ~seed ~rows log)
    else M.default_ctx
  in
  (* one root span per request: pool tasks submitted below inherit its
     trace id, so the --trace output draws flow arrows from this slice
     to the lane-side pool.task slices *)
  let ran, result =
    Obs.Span.with_span ~cat:"cli" "cli.mine" (fun () ->
        Server.Mine_plan.run ~ctx { Server.Mine_plan.k; eps; seed } plan log)
  in
  Printf.eprintf "engine: %s\n%!" (Server.Mine_plan.engine_name ran.engine);
  Option.iter (Printf.eprintf "fallback: %s\n%!") ran.fallback;
  match result with
  | Error errors ->
    List.iter (fun e -> Printf.eprintf "%s\n%!" (Fault.Error.to_string e)) errors;
    exit 1
  | Ok labels ->
    Array.iteri
      (fun i l ->
        Format.printf "%3d %3d  %s@." i l
          (Sqlir.Printer.to_string (List.nth log i)))
      labels;
    write_trace trace

let mine_cmd =
  let algo =
    Arg.(value & opt string "clink"
         & info [ "algo" ] ~doc:"dbscan, kmedoids, clink or outliers.")
  in
  let k = Arg.(value & opt int 4 & info [ "k" ] ~doc:"Cluster count.") in
  let eps =
    Arg.(value & opt float 0.45
         & info [ "eps" ] ~doc:"DBSCAN radius / outlier distance threshold.")
  in
  let engine =
    Arg.(value & opt string "auto"
         & info [ "engine" ]
             ~doc:"Neighbor engine: matrix (dense distance matrix), index \
                   (dbscan over an exact index, no matrix: a prefix \
                   filter on token/structure/clause, a BK-tree for edit) or auto (the index for dbscan on \
                   large indexable logs, matrix otherwise).  \
                   Both engines are exact: index labels equal the matrix \
                   engine's.  An engine that does not cover the algorithm \
                   or measure, or fails, falls back to matrix; the engine \
                   that ran and any fallback reason are printed on stderr.")
  in
  Cmd.v
    (Cmd.info "mine"
       ~doc:"Run distance-based mining over a (plain or encrypted) log.")
    Term.(const mine $ measure_arg $ algo $ k $ eps $ seed_arg $ rows_arg
          $ trace_arg $ engine $ log_arg)


(* the representative telemetry workload shared by [stats] and [top]:
   encrypt the log twice (the warm pass lights up any OPE/DET memo
   caches), build a distance matrix over the ciphertext, cluster, and
   push a small batch through the Paillier encryptor so the HOM latency
   sketch carries data even under schemes that never touch it *)
let stats_workload m seed rows enc log round =
  let cipher =
    Obs.Span.with_span ~cat:"cli" "cli.encrypt_log(cold)" (fun () ->
        Dpe.Encryptor.encrypt_log enc log)
  in
  ignore
    (Obs.Span.with_span ~cat:"cli" "cli.encrypt_log(warm)" (fun () ->
         Dpe.Encryptor.encrypt_log enc log));
  let ctx =
    if m = M.Result then begin
      let db = Workload.Gen_db.for_log ~seed ~rows log in
      M.ctx_with_db
        (Obs.Span.with_span ~cat:"cli" "cli.encrypt_database" (fun () ->
             Dpe.Db_encryptor.encrypt_database enc db))
    end
    else M.default_ctx
  in
  let dm = M.matrix ctx m cipher in
  let k = min 4 (List.length cipher) in
  if k > 0 then ignore (Mining.Hier.cut_k k dm);
  Obs.Span.with_span ~cat:"cli" "cli.hom_encrypt" (fun () ->
      let pub, _ = Dpe.Encryptor.paillier enc in
      let rng = Crypto.Drbg.create ~seed:(Printf.sprintf "%s-hom-%d" seed round) in
      for pass = 1 to 2 do
        for v = 1 to 4 do
          ignore (Crypto.Paillier.encrypt_int pub rng ((pass * 100) + v))
        done
      done)

(* the human-readable windowed footer: per-sketch recent throughput and
   latency quantiles, plus the span-buffer health line *)
let print_window_footer () =
  let rated =
    List.filter_map
      (fun { Obs.Registry.name; value } ->
        match value with
        | Obs.Registry.Vsketch s when s.count > 0 ->
          (match Obs.Window.rate name with
           | Some r ->
             let q p = Option.value ~default:0.0 (Obs.Window.quantile name p) in
             Some (name, s.count, r, q 0.5, q 0.99)
           | None -> None)
        | _ -> None)
      (Obs.Registry.snapshot ())
  in
  if rated <> [] then begin
    Format.printf "@.windowed (last %.0fs):@."
      (float (Obs.Window.epoch_ns () * Obs.Window.capacity ()) /. 1e9);
    Format.printf "  %-44s %10s %10s %12s %12s@." "sketch" "count" "ops/s"
      "p50" "p99";
    List.iter
      (fun (name, count, r, p50, p99) ->
        Format.printf "  %-44s %10d %10.1f %10.0fns %10.0fns@." name count r
          p50 p99)
      rated
  end;
  Format.printf "@.spans: %d buffered, %d dropped@."
    (List.length (Obs.Span.events ()))
    (Obs.Span.dropped ())

(* stats: run the representative pipeline (encrypt twice -> distance
   matrix -> cluster -> HOM batch) with telemetry on and report the
   kitdpe.* registry.  The second encryption pass re-encrypts the same
   constants, so any log whose scheme uses OPE/DET memoization reports
   non-zero cache hits. *)
let stats m pass seed rows json diff openmetrics trace path =
  Obs.set_enabled true;
  (* a baseline epoch before the workload makes everything below count
     as "recent", so windowed ops/s are non-zero in the snapshot *)
  Obs.Window.force ();
  let log = read_log path in
  let enc = encryptor_of m pass log in
  Obs.Span.with_span ~cat:"cli" "cli.stats" (fun () ->
      stats_workload m seed rows enc log 0);
  write_trace trace;
  Obs.Export.refresh_runtime ();
  (match openmetrics with
   | None -> ()
   | Some file ->
     Out_channel.with_open_bin file (fun oc ->
         output_string oc (Obs.Export.openmetrics ()));
     Printf.eprintf "wrote OpenMetrics exposition %s\n%!" file);
  match diff with
  | Some old_file ->
    let old_json = In_channel.with_open_bin old_file In_channel.input_all in
    (match Obs.Export.diff ~old_json with
     | Ok table -> print_string table
     | Error e ->
       Printf.eprintf "stats --diff: %s\n%!" e;
       exit 2)
  | None ->
    if json then print_endline (Obs.Json.to_string (Obs.Export.snapshot ()))
    else begin
      Format.printf "%t" Obs.Registry.dump;
      print_window_footer ()
    end

let stats_measure_arg =
  (* access-area by default: its scheme puts ordered constants under OPE,
     so the memo-cache counters the command exists to surface are live *)
  let doc = "Distance measure driving the pipeline (the access-area \
             and result schemes exercise the OPE cache)." in
  Arg.(value & opt measure_conv M.Access & info [ "m"; "measure" ] ~docv:"MEASURE" ~doc)

let stats_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the versioned metrics snapshot (schema \
                   kitdpe.metrics) as JSON.")
  in
  let diff =
    Arg.(value & opt (some string) None
         & info [ "diff" ] ~docv:"OLD.json"
             ~doc:"Instead of dumping, print an old/new/delta table of \
                   this run against a snapshot previously saved with \
                   --json.")
  in
  let openmetrics =
    Arg.(value & opt (some string) None
         & info [ "openmetrics" ] ~docv:"FILE"
             ~doc:"Also write the registry in OpenMetrics text \
                   exposition format to $(docv).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Encrypt and mine a log with telemetry enabled, then report \
             the kitdpe.* metric registry (cache hit rates, distance \
             evaluations, pool lane activity, latency sketches and \
             windowed throughput).")
    Term.(const stats $ stats_measure_arg $ passphrase_arg $ seed_arg
          $ rows_arg $ json $ diff $ openmetrics $ trace_arg $ log_arg)

(* top: the same workload in a loop, re-rendering windowed rates and
   recent quantiles every interval — a minimal [htop] for the pipeline *)
let top m pass seed rows interval rounds path =
  Obs.set_enabled true;
  Obs.Window.configure
    ~epoch_ns:(max 1_000_000 (int_of_float (interval *. 1e9)))
    ();
  Obs.Window.force ();
  let log = read_log path in
  let enc = encryptor_of m pass log in
  let clear = if Unix.isatty Unix.stdout then "\027[2J\027[H" else "" in
  let rec loop i =
    if rounds = 0 || i < rounds then begin
      Obs.Span.with_span ~cat:"cli" "cli.top_round" (fun () ->
          stats_workload m seed rows enc log i);
      Obs.Window.tick ();
      Obs.Export.refresh_runtime ();
      Format.printf "%s==== kitdpe top: round %d%s (interval %.1fs) ====@."
        clear (i + 1)
        (if rounds = 0 then "" else Printf.sprintf "/%d" rounds)
        interval;
      print_window_footer ();
      Format.printf "%!";
      if rounds = 0 || i + 1 < rounds then Unix.sleepf interval;
      loop (i + 1)
    end
  in
  loop 0

let top_cmd =
  let interval =
    Arg.(value & opt float 1.0
         & info [ "interval" ] ~docv:"SECONDS"
             ~doc:"Seconds between rounds (also the window epoch length).")
  in
  let rounds =
    Arg.(value & opt int 5
         & info [ "rounds" ] ~docv:"N"
             ~doc:"Workload rounds to run before exiting; 0 runs until \
                   interrupted.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Run the stats workload in a loop and re-render windowed \
             throughput and recent latency quantiles each round.")
    Term.(const top $ stats_measure_arg $ passphrase_arg $ seed_arg
          $ rows_arg $ interval $ rounds $ log_arg)

let attack m pass path =
  let log = read_log path in
  let scheme = scheme_of m log in
  let enc = Dpe.Encryptor.create (Crypto.Keyring.of_passphrase pass) scheme in
  let cipher = Dpe.Encryptor.encrypt_log enc log in
  let class_of a =
    Dpe.Scheme.ppe_of_const_class (Dpe.Scheme.class_for_attr scheme a)
  in
  let r =
    Attack.Harness.attack_log
      ~label:(Printf.sprintf "query-only attack on constants (%s scheme)" (M.to_string m))
      ~class_of ~plain:log ~cipher
  in
  Format.printf "%a" Attack.Harness.pp r;
  let names = Attack.Harness.attack_names ~label:"query-only attack on names" ~plain:log ~cipher in
  Format.printf "%a" Attack.Harness.pp names

let attack_cmd =
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Run the query-only attack against the encrypted log and report \
             constant-recovery rates.")
    Term.(const attack $ measure_arg $ passphrase_arg $ log_arg)

let cryptdb path =
  let log = read_log path in
  let plan = Cryptdb.Planner.replay log in
  Format.printf "%a" Cryptdb.Planner.pp plan;
  let profile = Dpe.Log_profile.of_log log in
  List.iter
    (fun m ->
      let cmp =
        Cryptdb.Baseline.compare_scheme ~profile (Dpe.Selector.select m profile) plan
      in
      Format.printf "%a" Cryptdb.Baseline.pp cmp)
    M.all

let cryptdb_cmd =
  Cmd.v
    (Cmd.info "cryptdb"
       ~doc:"Replay the log against CryptDB onions and compare security.")
    Term.(const cryptdb $ log_arg)

let normalize cipher_safe path =
  let log = read_log path in
  let f =
    if cipher_safe then Sqlir.Normalizer.normalize_cipher_safe
    else Sqlir.Normalizer.normalize
  in
  List.iter (fun q -> print_endline (Sqlir.Printer.to_string (f q))) log

let normalize_cmd =
  let cipher_safe =
    Arg.(value & flag
         & info [ "cipher-safe" ]
             ~doc:"Only the rewrites that commute with encryption.")
  in
  Cmd.v
    (Cmd.info "normalize" ~doc:"Canonicalize a query log.")
    Term.(const normalize $ cipher_safe $ log_arg)

let export_db scenario rows seed encrypted m pass dir =
  let db =
    match scenario with
    | "retail" -> Workload.Gen_db.retail ~seed ~rows
    | _ -> Workload.Gen_db.skyserver ~seed ~rows
  in
  let db =
    if not encrypted then db
    else begin
      (* derive the scheme from a representative log for this scenario *)
      let log =
        let p = { Workload.Gen_query.n = 40; templates = 4; seed;
                  caps = Workload.Gen_query.caps_for_measure m } in
        match scenario with
        | "retail" -> Workload.Gen_query.retail_log p
        | _ -> Workload.Gen_query.skyserver_log p
      in
      let enc = encryptor_of m pass log in
      Dpe.Db_encryptor.encrypt_database enc db
    end
  in
  match Minidb.Csvio.write_database ~dir db with
  | Ok files ->
    List.iter (fun f -> Printf.printf "%s/%s\n" dir f) files
  | Error e ->
    Printf.eprintf "export failed: %s\n%!" e;
    exit 4

let export_db_cmd =
  let scenario =
    Arg.(value & opt string "skyserver" & info [ "scenario" ] ~doc:"skyserver or retail.")
  in
  let encrypted =
    Arg.(value & flag & info [ "encrypted" ] ~doc:"Export the encrypted database.")
  in
  let dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
           ~doc:"Output directory for the CSV files.")
  in
  Cmd.v
    (Cmd.info "export-db"
       ~doc:"Write a (plain or encrypted) scenario database as CSV files.")
    Term.(const export_db $ scenario $ rows_arg $ seed_arg $ encrypted
          $ measure_arg $ passphrase_arg $ dir)

let mine_rules min_support min_confidence path =
  let log = read_log path in
  let transactions =
    List.map
      (fun q ->
        Sqlir.Lexer.tokenize (Sqlir.Printer.to_string q)
        |> List.filter_map (function
            | Sqlir.Lexer.Kw _ | Sqlir.Lexer.Sym _ -> None
            | t -> Some (Sqlir.Lexer.token_to_string t))
        |> List.sort_uniq String.compare)
      log
  in
  let params = { Mining.Apriori.min_support; min_confidence; max_size = 3 } in
  List.iter
    (fun r ->
      Format.printf "{%s} => {%s}  supp %.2f conf %.2f@."
        (String.concat ", " r.Mining.Apriori.antecedent)
        (String.concat ", " r.Mining.Apriori.consequent)
        r.Mining.Apriori.support r.Mining.Apriori.confidence)
    (Mining.Apriori.rules params transactions)

let rules_cmd =
  let min_support =
    Arg.(value & opt float 0.25 & info [ "min-support" ] ~doc:"Support threshold.")
  in
  let min_confidence =
    Arg.(value & opt float 0.8 & info [ "min-confidence" ] ~doc:"Confidence threshold.")
  in
  Cmd.v
    (Cmd.info "rules"
       ~doc:"Mine association rules over the content tokens of a (plain or \
             encrypted) log.")
    Term.(const mine_rules $ min_support $ min_confidence $ log_arg)

let sessions n templates length seed pass =
  let labelled =
    Workload.Gen_query.skyserver_sessions
      { Workload.Gen_query.n; templates; seed;
        caps = Workload.Gen_query.caps_full }
      ~length
  in
  let plain = List.map snd labelled in
  let flat = List.concat plain in
  let scheme = scheme_of M.Structure flat in
  let enc = Dpe.Encryptor.create (Crypto.Keyring.of_passphrase pass) scheme in
  let cipher = List.map (List.map (Dpe.Encryptor.encrypt_query enc)) plain in
  let matrix logs =
    let arr = Array.of_list (List.map Array.of_list logs) in
    Mining.Dist_matrix.of_fun (Array.length arr) (fun i j ->
        Mining.Dtw.normalized ~cost:Distance.D_structure.distance arr.(i) arr.(j))
  in
  let dc = matrix cipher in
  let labels = Mining.Hier.cut_k templates dc in
  Format.printf "session clustering over ciphertext (DTW + complete link):@.";
  Array.iteri
    (fun i l ->
      Format.printf "  session %2d -> cluster %d (template %d, %d queries)@."
        i l (fst (List.nth labelled i)) (List.length (List.nth plain i)))
    labels;
  let truth = Array.of_list (List.map fst labelled) in
  Format.printf "ARI vs planted templates: %.3f@."
    (Mining.Labeling.adjusted_rand_index truth labels)

let sessions_cmd =
  let n = Arg.(value & opt int 12 & info [ "n" ] ~doc:"Number of sessions.") in
  let templates =
    Arg.(value & opt int 3 & info [ "templates" ] ~doc:"Planted user templates.")
  in
  let length =
    Arg.(value & opt int 5 & info [ "length" ] ~doc:"Queries per session (about).")
  in
  Cmd.v
    (Cmd.info "sessions"
       ~doc:"Demonstrate session-level mining (DTW) over an encrypted log.")
    Term.(const sessions $ n $ templates $ length $ seed_arg $ passphrase_arg)

let table1 () =
  let log =
    List.map Sqlir.Parser.parse
      [ "SELECT objid, ra FROM photoobj WHERE ra BETWEEN 100 AND 200";
        "SELECT objid FROM photoobj WHERE class = 'QSO'";
        "SELECT class, SUM(redshift) FROM photoobj GROUP BY class";
        "SELECT photoobj.objid, z FROM photoobj JOIN specobj ON photoobj.objid = specobj.objid";
        "SELECT objid FROM photoobj WHERE magnitude < 20 ORDER BY magnitude LIMIT 10" ]
  in
  let profile = Dpe.Log_profile.of_log log in
  List.iter
    (fun s ->
      Format.printf "%s@."
        (String.concat " | " (Dpe.Selector.table1_row s)))
    (Dpe.Selector.select_all profile)

let table1_cmd =
  Cmd.v
    (Cmd.info "table1" ~doc:"Print the derived Table I rows.")
    Term.(const table1 $ const ())

(* ---- client: drive a running dpe_serve over the wire protocol ---- *)

let client host port op_s tenant m algo k eps deadline_ms retries attempts engine path =
  let op =
    match Server.Proto.op_of_string op_s with
    | Some op -> op
    | None ->
      Printf.eprintf "unknown op %S (encrypt, mine, stats or health)\n%!" op_s;
      exit 2
  in
  let queries =
    match op with
    | Server.Proto.Encrypt | Server.Proto.Mine -> (
      match path with
      | Some p -> read_lines p
      | None ->
        Printf.eprintf "op %s needs a LOG argument\n%!" op_s;
        exit 2)
    | Server.Proto.Stats | Server.Proto.Health -> []
  in
  match Server.Client.connect ~host ~port () with
  | Error e ->
    Printf.eprintf "connect %s:%d: %s\n%!" host port (Fault.Error.to_string e);
    exit 1
  | Ok c ->
    let req =
      { Server.Proto.id = Server.Client.fresh_id c; op; tenant; measure = m;
        algo; k; eps;
        deadline_ms = (if deadline_ms > 0 then Some deadline_ms else None);
        retries; engine = (if engine = "" then None else Some engine);
        queries }
    in
    let policy = { Fault.Retry.default with Fault.Retry.attempts } in
    let r =
      Server.Client.call_retry ~policy c (Server.Proto.request_to_json req)
    in
    Server.Client.close c;
    (match r with
     | Ok resp ->
       print_endline (Obs.Json.to_string resp);
       (match Server.Proto.response_status resp with
        | "ok" | "partial" -> ()
        | _ -> exit 1)
     | Error e ->
       Printf.eprintf "%s\n%!" (Fault.Error.to_string e);
       exit 1)

let client_cmd =
  let host =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"Server address.")
  in
  let port =
    Arg.(value & opt int 7464 & info [ "port" ] ~doc:"Server port.")
  in
  let op =
    Arg.(value & opt string "mine"
         & info [ "op" ] ~docv:"OP" ~doc:"encrypt, mine, stats or health.")
  in
  let tenant =
    Arg.(value & opt string "default"
         & info [ "tenant" ] ~doc:"Tenant key namespace on the server.")
  in
  let algo =
    Arg.(value & opt string "clink"
         & info [ "algo" ] ~doc:"mine: clink, dbscan, kmedoids or outliers.")
  in
  let k = Arg.(value & opt int 4 & info [ "k" ] ~doc:"mine: cluster count.") in
  let eps =
    Arg.(value & opt float 0.45
         & info [ "eps" ] ~doc:"mine: DBSCAN radius / outlier threshold.")
  in
  let deadline =
    Arg.(value & opt int 0
         & info [ "deadline-ms" ] ~doc:"Request deadline (0 = server default).")
  in
  let retries =
    Arg.(value & opt int 1
         & info [ "retries" ] ~doc:"Server-side per-item retry budget.")
  in
  let attempts =
    Arg.(value & opt int 4
         & info [ "attempts" ]
             ~doc:"Client attempts when shed with Overloaded (backoff \
                   honors the server's retry_after_ms hint).")
  in
  let engine =
    Arg.(value & opt string ""
         & info [ "engine" ]
             ~doc:"mine: neighbor engine (matrix or index; empty = server \
                   default).")
  in
  let log =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"LOG" ~doc:"Query log (encrypt/mine only).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running dpe_serve and print the \
             JSON response (exit 1 on error/overloaded).")
    Term.(const client $ host $ port $ op $ tenant $ measure_arg $ algo $ k
          $ eps $ deadline $ retries $ attempts $ engine $ log)

(* ---- chaos: a seeded fault-injection run with an invariant report ----

   Arms each compiled-in injection point in turn against a deterministic
   Result-measure pipeline and checks the robustness invariants of
   DESIGN.md §9: with faults off the output is bit-identical for every
   pool size; with a seeded schedule two runs produce the same typed
   error report; every batch completes with partial results (no hang,
   no silently missing row); bounded retry recovers injected transients;
   disarming restores the baseline bit-for-bit. *)

let chaos seed rows domains report_path =
  Obs.set_enabled true;
  Fault.Inject.disarm_all ();
  let buf = Buffer.create 4096 in
  let failures = ref 0 in
  let check name ok detail =
    if ok then Buffer.add_string buf (Printf.sprintf "ok   %s\n" name)
    else begin
      incr failures;
      Buffer.add_string buf (Printf.sprintf "FAIL %s: %s\n" name detail)
    end
  in
  let note fmt =
    Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt
  in
  note "# kitdpe chaos (seed=%s rows=%d domains=%d)" seed rows domains;

  (* deterministic fixture: the full Result-measure pipeline *)
  let m = M.Result in
  let log =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 20; templates = 4; seed;
        caps = Workload.Gen_query.caps_for_measure m }
  in
  let enc = encryptor_of m "chaos" log in
  let db = Workload.Gen_db.skyserver ~seed ~rows in
  let render d =
    String.concat "\n--\n"
      (List.map Minidb.Csvio.table_to_string (Minidb.Database.tables d))
  in
  let with_pool n f =
    let p = Parallel.Pool.create ~domains:n () in
    Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown p) (fun () -> f p)
  in
  (* every stage arms its own schedule and disarms on the way out *)
  let staged spec f =
    (match Fault.Inject.arm_spec (spec ^ ";seed=" ^ seed) with
     | Ok () -> ()
     | Error e -> check ("arm " ^ spec) false e);
    Fun.protect ~finally:Fault.Inject.disarm_all f
  in
  let collected = ref [] in
  let keep errs = collected := errs @ !collected in
  let report_of errs = List.map Fault.Error.to_string errs in

  (* 1. faults off: ciphertext is bit-identical for every pool size *)
  let baseline = render (Dpe.Db_encryptor.encrypt_database enc db) in
  let wide =
    with_pool domains (fun p ->
        render (Dpe.Db_encryptor.encrypt_database ~pool:p enc db))
  in
  check "faults-off output bit-identical across pool sizes"
    (baseline = wide) "ciphertext differs";

  (* 2. csv: malformed/injected rows are reported, the rest load *)
  let csv_run () =
    List.map
      (fun rel ->
        let t = Minidb.Database.find_exn db rel in
        match
          Minidb.Csvio.table_of_string_partial ~rel
            (Minidb.Csvio.table_to_string t)
        with
        | Error e -> (rel, Minidb.Table.cardinality t, 0, [ e ])
        | Ok (good, errs) ->
          (rel, Minidb.Table.cardinality t, Minidb.Table.cardinality good,
           errs))
      (Minidb.Database.relations db)
  in
  let csv_a = staged "minidb.csvio.row=every:5" csv_run in
  let csv_b = staged "minidb.csvio.row=every:5" csv_run in
  List.iter
    (fun (rel, total, good, errs) ->
      keep errs;
      check (Printf.sprintf "csv %s: rows in = rows out + errors" rel)
        (total = good + List.length errs)
        (Printf.sprintf "%d vs %d + %d" total good (List.length errs)))
    csv_a;
  check "csv: injected faults surfaced"
    (List.exists (fun (_, _, _, e) -> e <> []) csv_a) "no errors reported";
  check "csv: identical report on rerun"
    (List.map (fun (_, _, _, e) -> report_of e) csv_a
     = List.map (fun (_, _, _, e) -> report_of e) csv_b)
    "reports differ";

  (* 3. encrypt: partial results, reproducible report, pool-independent *)
  let enc_run ?pool ?retries () =
    let cipher, errs = Dpe.Db_encryptor.encrypt_database_r ?pool ?retries enc db in
    (Minidb.Database.total_rows cipher, errs)
  in
  let enc_spec = "dpe.db_encryptor.row=every:7" in
  let out_a, errs_a = staged enc_spec (fun () -> enc_run ()) in
  let _, errs_b = staged enc_spec (fun () -> enc_run ()) in
  let _, errs_c =
    staged enc_spec (fun () -> with_pool domains (fun p -> enc_run ~pool:p ()))
  in
  keep errs_a;
  check "encrypt: no row silently missing"
    (Minidb.Database.total_rows db = out_a + List.length errs_a)
    (Printf.sprintf "%d vs %d + %d" (Minidb.Database.total_rows db) out_a
       (List.length errs_a));
  check "encrypt: injected faults surfaced" (errs_a <> []) "no errors";
  check "encrypt: identical report on rerun"
    (report_of errs_a = report_of errs_b) "reports differ";
  check "encrypt: identical report across pool sizes"
    (report_of errs_a = report_of errs_c) "reports differ";

  (* 4. retry: the row point is transient (attempt 0), so retries recover *)
  let retried_before =
    Obs.Metric.value (Obs.Registry.counter "kitdpe.fault.retried")
  in
  let out_r, errs_r = staged enc_spec (fun () -> enc_run ~retries:2 ()) in
  let retried_after =
    Obs.Metric.value (Obs.Registry.counter "kitdpe.fault.retried")
  in
  check "retry: bounded retry recovers all injected rows"
    (errs_r = [] && out_r = Minidb.Database.total_rows db)
    (Printf.sprintf "%d errors, %d rows" (List.length errs_r) out_r);
  check "retry: retries accounted" (retried_after > retried_before)
    "kitdpe.fault.retried did not move";

  (* 5. distance matrix: row failures reported, healthy rows computed *)
  let qs = Array.of_list log in
  let dist i j = M.compute M.default_ctx M.Token qs.(i) qs.(j) in
  let dm_run () =
    match Mining.Dist_matrix.of_fun_r (Array.length qs) dist with
    | Ok _ -> []
    | Error errs -> errs
  in
  let dm_a = staged "mining.dist_matrix.eval=every:3" dm_run in
  let dm_b = staged "mining.dist_matrix.eval=every:3" dm_run in
  keep dm_a;
  check "dist_matrix: injected faults surfaced" (dm_a <> []) "no errors";
  check "dist_matrix: identical report on rerun"
    (report_of dm_a = report_of dm_b) "reports differ";
  check "dist_matrix: clean once disarmed" (dm_run () = []) "errors remain";

  (* 5b. feature precomputation: per-query build failures are typed,
     healthy queries still build, and the report is reproducible *)
  let feat_run () =
    match M.matrix_r M.default_ctx M.Token log with
    | Ok _ -> []
    | Error errs -> errs
  in
  let ft_a = staged "distance.features.build=every:4" feat_run in
  let ft_b = staged "distance.features.build=every:4" feat_run in
  keep ft_a;
  check "features: injected builds surface as features.build"
    (List.exists
       (function
         | Fault.Error.Task_failed { label = "features.build"; _ } -> true
         | _ -> false)
       ft_a)
    "no features.build error";
  check "features: identical report on rerun"
    (report_of ft_a = report_of ft_b) "reports differ";
  check "features: clean once disarmed" (feat_run () = []) "errors remain";

  (* 5c. index: an armed build fails whole at index.build — no index
     over a subset, which would silently drop the failed points from
     every range answer; a disarmed build answers exactly, and the
     BK-tree, the one index built on the pool, is bit-identical for
     every pool size *)
  let feats_ix = Distance.Features.build qs in
  let sp_ix = Index.Space.of_kind Index.Space.Token feats_ix in
  let ix_build () = Index.Vp_tree.build ~seed:"chaos" sp_ix in
  let ix_run () =
    match Fault.protect ~context:"chaos.index" (fun () -> ix_build ()) with
    | Ok _ -> []
    | Error e -> [ e ]
  in
  let ix_a = staged "index.build=every:4" ix_run in
  let ix_b = staged "index.build=every:4" ix_run in
  keep ix_a;
  check "index: injected builds surface as index.build"
    (List.mem "index.build" (List.concat_map Fault.Error.injected_points ix_a))
    "no index.build error";
  check "index: identical report on rerun"
    (report_of ix_a = report_of ix_b) "reports differ";
  check "index: clean once disarmed" (ix_run () = []) "errors remain";
  let sp_edit = Index.Space.of_kind Index.Space.Edit feats_ix in
  let bk_fp ?pool () =
    Index.Bk_tree.fingerprint (Index.Bk_tree.build ?pool ~seed:"chaos" sp_edit)
  in
  check "index: tree bit-identical across pool sizes"
    (bk_fp () = with_pool domains (fun pool -> bk_fp ~pool ()))
    "fingerprints differ";
  let ix_clean = ix_build () in
  let ix_brute q =
    let acc = ref [] in
    for j = Array.length qs - 1 downto 0 do
      if j <> q && Index.Space.within sp_ix ~eps:0.4 q j then acc := j :: !acc
    done;
    !acc
  in
  check "index: range equals brute force"
    (List.for_all
       (fun q -> Index.Vp_tree.range ix_clean ~eps:0.4 q = ix_brute q)
       (List.init (Array.length qs) (fun i -> i)))
    "neighbor sets differ";

  (* 6. pool: the armed task crashes, the batch still completes *)
  let errors_of = function Ok _ -> [] | Error errs -> errs in
  let pool_run () =
    with_pool domains (fun p ->
        let ran = Atomic.make 0 in
        let errs =
          errors_of
            (Parallel.Pool.map_range_r p ~label:"chaos.pool" 8 (fun _ ->
                 Atomic.incr ran))
        in
        (Atomic.get ran, errs))
  in
  let ran, pool_errs = staged "parallel.pool.task=nth:3" pool_run in
  keep pool_errs;
  check "pool: batch completes around the crashed task"
    (ran = 7
    &&
    match pool_errs with
    | [ Fault.Error.Task_failed { index = 3; _ } ] -> true
    | _ -> false)
    (Printf.sprintf "%d ran, %d errors" ran (List.length pool_errs));

  (* 6b. the matrix fill is a pool batch on every pool size: the armed
     task point fails the same row on 1 lane as on [domains] lanes *)
  let mx_run lanes () =
    with_pool lanes (fun pool ->
        report_of
          (errors_of
             (Mining.Dist_matrix.of_fun_r ~pool 100 (fun i j ->
                  float_of_int (abs (i - j))))))
  in
  let mx_one = staged "parallel.pool.task=nth:5" (mx_run 1) in
  let mx_wide = staged "parallel.pool.task=nth:5" (mx_run domains) in
  check "matrix: pool-task victims identical across pool sizes"
    (mx_one <> [] && mx_one = mx_wide)
    (Printf.sprintf "1 lane: [%s]; %d lanes: [%s]" (String.concat "; " mx_one)
       domains (String.concat "; " mx_wide));

  (* 7. a crypto-layer point, exercised directly *)
  let ope_err =
    staged "crypto.ope.encrypt=always" (fun () ->
        let k =
          Crypto.Ope.create ~master:"chaos" ~purpose:"chaos"
            Crypto.Ope.default_params
        in
        Fault.protect ~context:"chaos.ope" (fun () -> Crypto.Ope.encrypt k 5))
  in
  (match ope_err with
   | Error e -> keep [ e ]
   | Ok _ -> ());
  check "ope: armed point surfaces as typed error"
    (match ope_err with Error (Fault.Error.Injected _) -> true | _ -> false)
    "no injected error";

  (* coverage: every armed point traced through some typed error *)
  let surfaced =
    List.sort_uniq String.compare
      (List.concat_map Fault.Error.injected_points !collected)
  in
  List.iter
    (fun p ->
      check (Printf.sprintf "coverage: %s surfaced" p)
        (List.mem p surfaced) "never seen in an error report")
    [ "minidb.csvio.row"; "dpe.db_encryptor.row"; "mining.dist_matrix.eval";
      "distance.features.build"; "index.build"; "parallel.pool.task";
      "crypto.ope.encrypt" ];

  (* 8. disarming restores the baseline bit-for-bit *)
  check "disarmed: registry empty" (not (Fault.enabled ())) "still armed";
  check "disarmed: output equals baseline"
    (render (Dpe.Db_encryptor.encrypt_database enc db) = baseline)
    "ciphertext differs from baseline";

  (* 9. server: a live dpe_serve loop (DESIGN.md §14) — every request
     answered under an armed schedule, typed Overloaded sheds, faults-off
     response stream bit-identical across fresh instances, graceful
     drain completes *)
  let with_server cfg f =
    match Server.Engine.start cfg with
    | Error e ->
      check "server: start" false (Fault.Error.to_string e);
      None
    | Ok t ->
      Some
        (Fun.protect
           ~finally:(fun () ->
             Server.Engine.request_drain t;
             Server.Engine.wait t)
           (fun () -> f t))
  in
  let server_cfg =
    { Server.Engine.default_config with
      Server.Engine.workers = 2; queue_capacity = 8; master = "chaos" }
  in
  let sql = Array.of_list (List.map Sqlir.Printer.to_string log) in
  let queries_for i = Array.to_list (Array.sub sql (i mod 4) 8) in
  let mk ~id ~op ?deadline_ms queries =
    Server.Proto.request_to_json
      { Server.Proto.id; op; tenant = "chaos"; measure = M.Token;
        algo = "clink"; k = 3; eps = 0.45; deadline_ms; retries = 1;
        engine = None; queries }
  in
  let fault_counts () =
    Array.map
      (fun n -> Obs.Metric.value (Obs.Registry.counter ("kitdpe.fault." ^ n)))
      [| "injected"; "caught"; "retried" |]
  in
  (* the faults a deadline-carrying request fires depend on timing; the
     client waits for each answer, so the counter moves over its call
     are its own, and the counters line leaves them out *)
  let timed_out = ref [| 0; 0; 0 |] in
  let call c req =
    let before = fault_counts () in
    let r = Server.Client.call c req in
    if Obs.Json.member "deadline_ms" req <> None then
      timed_out := Array.map2 ( + ) !timed_out (Array.map2 ( - ) (fault_counts ()) before);
    r
  in
  let call_all t reqs =
    match Server.Client.connect ~port:(Server.Engine.port t) () with
    | Error e -> List.map (fun _ -> Error e) reqs
    | Ok c ->
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () -> List.map (call c) reqs)
  in
  let answers f = List.filter_map (fun r -> Option.map f (Result.to_option r)) in
  let renderings rs = answers Obs.Json.to_string rs in
  let statuses rs = answers Server.Proto.response_status rs in
  (* 9a. faults off: two fresh instances (fresh tenant keys, same DRBG
     streams) answer an identical workload bit-identically *)
  let baseline_reqs =
    List.init 12 (fun i ->
        let id = i + 1 in
        match i mod 3 with
        | 0 -> mk ~id ~op:Server.Proto.Encrypt (queries_for i)
        | 1 -> mk ~id ~op:Server.Proto.Mine (queries_for i)
        | _ -> mk ~id ~op:Server.Proto.Health [])
  in
  let run_srv_baseline () =
    with_server server_cfg (fun t -> call_all t baseline_reqs)
  in
  (match run_srv_baseline (), run_srv_baseline () with
   | Some ra, Some rb ->
     check "server: every baseline request answered"
       (List.length (renderings ra) = List.length baseline_reqs)
       (Printf.sprintf "%d of %d responses" (List.length (renderings ra))
          (List.length baseline_reqs));
     check "server: faults-off response stream bit-identical"
       (renderings ra = renderings rb) "response streams differ"
   | _ -> ());
  (* 9b. armed: a seeded 200-request mixed workload — exactly 200 typed
     responses (requests in = responses out), deterministic Overloaded
     sheds from the admission point, degraded mines surface as
     partial/error, rerun gives the same statuses (deadline-carrying
     requests excepted: their outcome is timing-dependent by design) *)
  let armed_reqs =
    List.init 200 (fun i ->
        let id = i + 1 in
        match i mod 5 with
        | 0 -> mk ~id ~op:Server.Proto.Encrypt (queries_for i)
        | 1 -> mk ~id ~op:Server.Proto.Mine (queries_for i)
        | 2 -> mk ~id ~op:Server.Proto.Health []
        | 3 -> mk ~id ~op:Server.Proto.Mine ~deadline_ms:1 (queries_for i)
        | _ -> mk ~id ~op:Server.Proto.Stats [])
  in
  let armed_spec = "server.admission=every:11;distance.features.build=every:4" in
  let run_srv_armed () =
    staged armed_spec (fun () ->
        with_server server_cfg (fun t -> call_all t armed_reqs))
  in
  let req_counter () =
    Obs.Metric.value (Obs.Registry.counter "kitdpe.server.requests")
  in
  let resp_counter () =
    Obs.Metric.value (Obs.Registry.counter "kitdpe.server.responses")
  in
  let req0 = req_counter () and resp0 = resp_counter () in
  (match run_srv_armed (), run_srv_armed () with
   | Some ra, Some rb ->
     let sa = statuses ra in
     check "server: 200 requests in, 200 responses out under faults"
       (List.length sa = List.length armed_reqs)
       (Printf.sprintf "%d responses" (List.length sa));
     check "server: every response status typed"
       (List.for_all
          (fun s -> List.mem s [ "ok"; "partial"; "error"; "overloaded" ])
          sa)
       "unknown status";
     check "server: armed admission point sheds with typed Overloaded"
       (List.mem "overloaded" sa) "no shed observed";
     check "server: degraded requests surface as partial or typed error"
       (List.exists (fun s -> s = "partial" || s = "error") sa)
       "no degradation observed";
     let stable rs =
       List.filteri (fun i _ -> i mod 5 <> 3) (statuses rs)
     in
     check "server: identical statuses on rerun (deadlines excepted)"
       (List.length sa = List.length armed_reqs
        && List.length (statuses rb) = List.length armed_reqs
        && stable ra = stable rb)
       "status streams differ";
     check "server: requests counter equals responses counter"
       (req_counter () - req0 = resp_counter () - resp0)
       (Printf.sprintf "%d requests vs %d responses" (req_counter () - req0)
          (resp_counter () - resp0))
   | _ -> ());
  (* 9c. wire garbage: a framed non-JSON payload gets a typed protocol
     error and the session keeps serving *)
  (match
     with_server server_cfg (fun t ->
         let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
         Fun.protect
           ~finally:(fun () ->
             try Unix.close fd with Unix.Unix_error _ -> ())
           (fun () ->
             Unix.connect fd
               (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.Engine.port t));
             let garbage_kind =
               match Server.Frame.write fd "this is not json" with
               | Error _ -> None
               | Ok () -> (
                 match Server.Frame.read fd with
                 | Ok (Some p) -> (
                   match Obs.Json.parse p with
                   | Ok j ->
                     Option.bind (Obs.Json.member "error_kind" j)
                       Obs.Json.to_str
                   | Error _ -> None)
                 | _ -> None)
             in
             let alive =
               match
                 Server.Frame.write fd
                   (Obs.Json.to_string (mk ~id:99 ~op:Server.Proto.Health []))
               with
               | Error _ -> false
               | Ok () -> (
                 match Server.Frame.read fd with
                 | Ok (Some _) -> true
                 | _ -> false)
             in
             (garbage_kind, alive)))
   with
   | Some (kind, alive) ->
     check "server: garbage payload yields typed protocol error"
       (kind = Some "protocol")
       (match kind with Some k -> "kind " ^ k | None -> "no response");
     check "server: session survives a protocol error" alive
       "session closed after garbage payload"
   | None -> ());

  let counts = Array.map2 ( - ) (fault_counts ()) !timed_out in
  note "# counters: injected=%d caught=%d retried=%d" counts.(0) counts.(1)
    counts.(2);
  note "# %s" (if !failures = 0 then "all invariants hold" else "INVARIANT FAILURES");

  let report = Buffer.contents buf in
  print_string report;
  (match report_path with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     output_string oc report;
     close_out oc);
  if !failures > 0 then exit 1

let chaos_cmd =
  let domains =
    Arg.(value & opt int 3 & info [ "domains" ] ~doc:"Pool lanes for the parallel stages.")
  in
  let report =
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE"
           ~doc:"Also write the invariant report to $(docv).")
  in
  let rows =
    Arg.(value & opt int 60 & info [ "rows" ] ~doc:"Rows for the chaos database.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run a seeded fault-injection schedule and check the \
             robustness invariants (deterministic reports, partial \
             results, retry recovery, bit-identical disarmed output).")
    Term.(const chaos $ seed_arg $ rows $ domains $ report)

let main =
  let doc = "distance-preserving encryption for SQL query logs (KIT-DPE)" in
  Cmd.group
    (Cmd.info "dpe_cli" ~version:"1.0.0" ~doc)
    [ generate_cmd; profile_cmd; select_cmd; encrypt_cmd; decrypt_cmd;
      verify_cmd; mine_cmd; attack_cmd; cryptdb_cmd; table1_cmd;
      normalize_cmd; export_db_cmd; rules_cmd; sessions_cmd; stats_cmd;
      top_cmd; client_cmd; chaos_cmd ]

let () = exit (Cmd.eval main)

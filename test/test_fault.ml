(* The fault layer itself: typed error channel, deterministic injection
   registry, crash-contained pool surfaces and the retry contract of the
   database encryptor.

   Every test that arms a point disarms on the way out ([with_faults]):
   the registry is process-global, and the suite's own determinism
   claims depend on a clean slate between cases. *)

module E = Fault.Error
module I = Fault.Inject

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let with_faults spec f =
  (match I.arm_spec spec with
   | Ok () -> ()
   | Error m -> Alcotest.fail ("arm_spec rejected " ^ spec ^ ": " ^ m));
  Fun.protect ~finally:I.disarm_all f

let with_pool ?domains f =
  let p = Parallel.Pool.create ?domains () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown p) (fun () -> f p)

(* ---------------- Error: rendering, causes, translation ---------------- *)

let test_to_string () =
  check_string "injected" "injected fault at crypto.ope.draw (key 7)"
    (E.to_string (E.Injected { point = "crypto.ope.draw"; key = 7 }));
  check_string "csv" "malformed CSV at line 3: unterminated quoted field"
    (E.to_string
       (E.Csv_malformed { line = 3; reason = "unterminated quoted field" }));
  check_string "nested row"
    "row 4 of stars failed after 2 attempt(s): injected fault at \
     dpe.db_encryptor.row (key 4)"
    (E.to_string
       (E.Row_failed
          { rel = "stars"; row = 4; attempts = 2;
            cause = E.Injected { point = "dpe.db_encryptor.row"; key = 4 } }))

let test_injected_points () =
  let deep =
    E.Task_failed
      { label = "dist_matrix.row"; index = 1;
        cause =
          E.Row_failed
            { rel = "t"; row = 0; attempts = 1;
              cause = E.Injected { point = "crypto.ope.encrypt"; key = 9 } } }
  in
  (match E.injected_points deep with
   | [ "crypto.ope.encrypt" ] -> ()
   | _ -> Alcotest.fail "cause chain not walked");
  check_bool "non-injected chain is empty" true
    (E.injected_points
       (E.Crypto_failure { op = "x"; reason = "y" }) = [])

let test_of_exn () =
  (match E.of_exn ~context:"t" (E.E (E.Csv_malformed { line = 1; reason = "r" })) with
   | E.Csv_malformed { line = 1; reason = "r" } -> ()
   | e -> Alcotest.fail (E.to_string e));
  (match E.of_exn ~context:"t" (Failure "boom") with
   | E.Unexpected { context = "t"; exn } ->
     check_bool "exn text mentions payload" true
       (String.length exn > 0)
   | e -> Alcotest.fail (E.to_string e));
  (* Dpe.Encryptor registers a translator for its own exception *)
  (match E.of_exn ~context:"t" (Dpe.Encryptor.Encrypt_error "no scheme") with
   | E.Crypto_failure { reason = "no scheme"; _ } -> ()
   | e -> Alcotest.fail ("translator missed: " ^ E.to_string e))

(* ---------------- Inject: spec parsing and triggers ---------------- *)

let test_arm_spec_ok () =
  with_faults "a.b.c=nth:3; d.e.f=prob:0.5 ;seed=run42" (fun () ->
      check_bool "enabled" true (Fault.enabled ());
      check_string "seed" "run42" (I.get_seed ());
      let armed = List.sort compare (I.armed ()) in
      (match armed with
       | [ ("a.b.c", I.Nth 3); ("d.e.f", I.Prob p) ] ->
         check_bool "prob value" true (p = 0.5)
       | _ -> Alcotest.fail "wrong armed set"));
  check_bool "disarmed afterwards" false (Fault.enabled ())

let test_arm_spec_errors () =
  I.arm "pre.existing" I.Always;
  List.iter
    (fun bad ->
      match I.arm_spec bad with
      | Ok () -> Alcotest.fail ("accepted bad spec " ^ bad)
      | Error _ ->
        check_bool ("nothing armed after " ^ bad) true (I.armed () = []);
        check_bool "disabled" false (Fault.enabled ()))
    [ "no-equals"; "a=wat"; "a=nth:x"; "a=nth:-1"; "a=every:0"; "a=prob:1.5" ]

let test_triggers_keyed () =
  with_faults "p=nth:3" (fun () ->
      for k = 0 to 9 do
        let fired = I.check ~key:k "p" <> None in
        check_bool (Printf.sprintf "nth:3 at key %d" k) (k = 3) fired
      done);
  with_faults "p=every:4" (fun () ->
      for k = 0 to 9 do
        let fired = I.check ~key:k "p" <> None in
        check_bool (Printf.sprintf "every:4 at key %d" k) (k mod 4 = 0) fired
      done);
  with_faults "p=always" (fun () ->
      check_bool "always fires" true (I.check ~key:42 "p" = Some 42))

let test_trigger_counter_fallback () =
  (* without a key the per-point call counter is the key: 0-based *)
  with_faults "p=nth:2" (fun () ->
      let fires = List.init 5 (fun _ -> I.check "p" <> None) in
      check_bool "third call only" true
        (fires = [ false; false; true; false; false ]);
      match I.stats () with
      | [ ("p", I.Nth 2, 5, 1) ] -> ()
      | _ -> Alcotest.fail "stats miscounted")

let prob_victims () =
  List.filter (fun k -> I.check ~key:k "p" <> None) (List.init 200 Fun.id)

let test_prob_deterministic () =
  let a = with_faults "p=prob:0.5;seed=s1" prob_victims in
  let b = with_faults "p=prob:0.5;seed=s1" prob_victims in
  let c = with_faults "p=prob:0.5;seed=s2" prob_victims in
  check_bool "same seed, same victims" true (a = b);
  check_bool "different seed, different victims" true (a <> c);
  let n = List.length a in
  check_bool "plausible coin (40..160 of 200)" true (n > 40 && n < 160)

let test_point_raises () =
  Fault.point ~key:0 "never.armed";
  with_faults "x.y.z=always" (fun () ->
      match Fault.point ~key:5 "x.y.z" with
      | () -> Alcotest.fail "armed point did not raise"
      | exception E.E (E.Injected { point = "x.y.z"; key = 5 }) -> ()
      | exception e -> Alcotest.fail (Printexc.to_string e))

let test_protect () =
  (match Fault.protect ~context:"t" (fun () -> 41 + 1) with
   | Ok 42 -> ()
   | _ -> Alcotest.fail "protect Ok");
  match Fault.protect ~context:"t" (fun () -> raise (Failure "no")) with
  | Error (E.Unexpected { context = "t"; _ }) -> ()
  | Ok _ | Error _ -> Alcotest.fail "protect Error"

(* ---------------- Pool: injected task faults are contained ---------------- *)

let run_batch p =
  let ran = Atomic.make 0 in
  let res = Parallel.Pool.map_range_r p ~label:"batch" 6 (fun _ -> Atomic.incr ran) in
  (Atomic.get ran, match res with Ok _ -> [] | Error errs -> errs)

let test_pool_task_injection () =
  (* same victim for every pool size: the trigger keys on task index *)
  List.iter
    (fun domains ->
      with_pool ~domains (fun p ->
          with_faults "parallel.pool.task=nth:2" (fun () ->
              let ran, errs = run_batch p in
              check_int "other tasks ran" 5 ran;
              match errs with
              | [ E.Task_failed
                    { label = "batch"; index = 2;
                      cause = E.Injected { point = "parallel.pool.task"; key = 2 } } ] ->
                ()
              | _ -> Alcotest.fail "wrong containment report")))
    [ 1; 2; 4 ]

let test_matrix_pool_task_victims () =
  (* the matrix fill is one pool batch at every size: the armed task
     point fails the same row on 1 lane (and below 64 rows) as on 2 or
     4 lanes *)
  List.iter
    (fun (domains, n) ->
      with_pool ~domains (fun pool ->
          with_faults "parallel.pool.task=nth:5" (fun () ->
              match
                Mining.Dist_matrix.of_fun_r ~pool n (fun i j ->
                    float_of_int (abs (i - j)))
              with
              | Error
                  [ E.Task_failed
                      { label = "dist_matrix.row"; index = 5;
                        cause = E.Injected { point = "parallel.pool.task"; key = 5 } } ] ->
                ()
              | Ok _ ->
                Alcotest.failf "n=%d on %d lanes: armed row not reported" n domains
              | Error errs ->
                Alcotest.failf "n=%d on %d lanes: %s" n domains
                  (String.concat "; " (List.map E.to_string errs)))))
    [ (1, 100); (2, 100); (4, 100); (2, 40) ]

(* ---------------- Db_encryptor: retry and determinism ---------------- *)

let keyring = Crypto.Keyring.create ~master:"fault-test"

let table, enc =
  let m = Distance.Measure.Result in
  let log =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 12; templates = 3; seed = "fault";
        caps = Workload.Gen_query.caps_for_measure m }
  in
  let scheme = Dpe.Selector.select m (Dpe.Log_profile.of_log log) in
  let db = Workload.Gen_db.skyserver ~seed:"fault" ~rows:24 in
  (List.hd (Minidb.Database.tables db), Dpe.Encryptor.create keyring scheme)

let encrypt_clean ?pool () =
  match Dpe.Db_encryptor.encrypt_table_r ?pool enc table with
  | cipher, [] -> cipher
  | _, e :: _ -> Alcotest.fail (Fault.Error.to_string e)

let baseline = lazy (encrypt_clean ())

let test_encrypt_table_partial () =
  let n = Minidb.Table.cardinality table in
  let run () = Dpe.Db_encryptor.encrypt_table_r enc table in
  let cipher, errs = with_faults "dpe.db_encryptor.row=every:4" run in
  let victims = (n + 3) / 4 in
  check_int "every 4th row reported" victims (List.length errs);
  check_int "no row silently missing"
    n (Minidb.Table.cardinality cipher + List.length errs);
  List.iter
    (fun e ->
      match e with
      | E.Row_failed { row; attempts = 1; cause = E.Injected _; _ } ->
        check_bool "victim rows are multiples of 4" true (row mod 4 = 0)
      | e -> Alcotest.fail (E.to_string e))
    errs;
  (* exactly reproducible: the report is a pure function of spec+input *)
  let _, errs2 = with_faults "dpe.db_encryptor.row=every:4" run in
  check_bool "identical report on rerun" true
    (List.map E.to_string errs = List.map E.to_string errs2);
  (* ... including across pool sizes *)
  let _, errs3 =
    with_pool ~domains:3 (fun p ->
        with_faults "dpe.db_encryptor.row=every:4" (fun () ->
            Dpe.Db_encryptor.encrypt_table_r ~pool:p enc table))
  in
  check_bool "identical report on 3-lane pool" true
    (List.map E.to_string errs = List.map E.to_string errs3)

let test_encrypt_table_retry () =
  (* the row point fires on attempt 0 only: one retry fully recovers *)
  let cipher, errs =
    with_faults "dpe.db_encryptor.row=every:4" (fun () ->
        Dpe.Db_encryptor.encrypt_table_r ~retries:1 enc table)
  in
  check_bool "no errors with one retry" true (errs = []);
  check_int "full table" (Minidb.Table.cardinality table)
    (Minidb.Table.cardinality cipher);
  (* retried rows draw from the attempt-1 DRBG — deterministically *)
  let cipher2, _ =
    with_faults "dpe.db_encryptor.row=every:4" (fun () ->
        Dpe.Db_encryptor.encrypt_table_r ~retries:1 enc table)
  in
  check_string "retried output is reproducible"
    (Minidb.Csvio.table_to_string cipher)
    (Minidb.Csvio.table_to_string cipher2);
  (* untouched rows are bit-identical to the fault-free baseline *)
  let base_rows = Array.of_list (Minidb.Table.rows (Lazy.force baseline)) in
  let got_rows = Array.of_list (Minidb.Table.rows cipher) in
  Array.iteri
    (fun i row ->
      if i mod 4 <> 0 then
        check_bool (Printf.sprintf "row %d untouched" i) true
          (row = base_rows.(i)))
    got_rows

let test_faults_off_identical () =
  check_bool "nothing armed" false (Fault.enabled ());
  let a = Minidb.Csvio.table_to_string (Lazy.force baseline) in
  let b =
    with_pool ~domains:3 (fun p ->
        Minidb.Csvio.table_to_string (encrypt_clean ~pool:p ()))
  in
  check_string "bit-identical for every pool size" a b

(* ---------------- noise-pool prewarm: injected fill faults ---------------- *)

let test_noise_pool_injection () =
  (* an armed [crypto.paillier.noise_pool] point aborts fills; the
     prewarm reports every victim, and encryption simply misses the pool
     and recomputes — output stays bit-identical to the pool-off run *)
  let log =
    match
      Sqlir.Parser.parse_result
        "SELECT class, SUM(redshift) AS total FROM photoobj GROUP BY class"
    with
    | Ok q -> [ q ]
    | Error e -> Alcotest.fail e
  in
  let scheme = Dpe.Selector.select Distance.Measure.Result (Dpe.Log_profile.of_log log) in
  check_bool "redshift is HOM" true
    (Dpe.Scheme.class_for_attr scheme "redshift" = Dpe.Scheme.C_hom);
  let db = Workload.Gen_db.skyserver ~seed:"fault-pool" ~rows:16 in
  let encrypt_pool_off () =
    let enc = Dpe.Encryptor.create keyring scheme in
    Minidb.Csvio.table_to_string
      (List.hd (Minidb.Database.tables (Dpe.Db_encryptor.encrypt_database enc db)))
  in
  let reference = encrypt_pool_off () in
  let enc = Dpe.Encryptor.create keyring scheme in
  let filled, errs =
    with_faults "crypto.paillier.noise_pool=always" (fun () ->
        Dpe.Db_encryptor.prewarm_hom_noise_r enc db)
  in
  check_int "every fill aborted" 0 filled;
  check_bool "victims reported" true (errs <> []);
  List.iter
    (fun e ->
      check_bool "traceable to the armed point" true
        (E.injected_points e = [ "crypto.paillier.noise_pool" ]))
    errs;
  let after_fault =
    Minidb.Csvio.table_to_string
      (List.hd (Minidb.Database.tables (Dpe.Db_encryptor.encrypt_database enc db)))
  in
  check_string "empty pool degrades to pool-off output" reference after_fault;
  (* disarmed: the same prewarm fills every HOM cell and stays identical *)
  let enc2 = Dpe.Encryptor.create keyring scheme in
  let filled2, errs2 = Dpe.Db_encryptor.prewarm_hom_noise_r enc2 db in
  check_bool "disarmed prewarm clean" true (errs2 = []);
  check_int "every HOM cell filled" (List.length errs) filled2;
  let warm =
    Minidb.Csvio.table_to_string
      (List.hd (Minidb.Database.tables (Dpe.Db_encryptor.encrypt_database enc2 db)))
  in
  check_string "warm pool bit-identical" reference warm

(* ---------------- Dist_matrix: injected eval faults ---------------- *)

let test_dist_matrix_injection () =
  let key_1_2 = (1 lsl 20) lor 2 in
  with_faults (Printf.sprintf "mining.dist_matrix.eval=nth:%d" key_1_2)
    (fun () ->
      match
        Mining.Dist_matrix.of_fun_r 5 (fun i j -> float_of_int (abs (i - j)))
      with
      | Ok _ -> Alcotest.fail "injected fault did not surface"
      | Error errs ->
        (match errs with
         | [ E.Task_failed { label = "dist_matrix.row"; index = 1; cause } ] ->
           check_bool "traceable to the armed point" true
             (E.injected_points
                (E.Task_failed { label = "dist_matrix.row"; index = 1; cause })
              = [ "mining.dist_matrix.eval" ])
         | _ -> Alcotest.fail "wrong error report"));
  match Mining.Dist_matrix.of_fun_r 5 (fun i j -> float_of_int (abs (i - j))) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "disarmed run must succeed"

(* ---------------- Retry: backoff schedule and attempt accounting ---------------- *)

let flaky fail_first =
  let calls = ref 0 in
  let f ~attempt =
    ignore attempt;
    incr calls;
    if !calls <= fail_first then
      Error (E.Io_failure { path = "flaky"; reason = "transient" })
    else Ok !calls
  in
  (calls, f)

let test_retry_accounting () =
  (* succeeds on attempt 3 of 3 *)
  let calls, f = flaky 2 in
  (match Fault.Retry.run ~key:"t" f with
   | Ok 3 -> ()
   | Ok n -> Alcotest.failf "wrong success attempt %d" n
   | Error e -> Alcotest.failf "retry gave up: %s" (E.to_string e));
  check_int "three attempts made" 3 !calls;
  (* exhausts 3 attempts; run_n reports the count *)
  let calls, f = flaky 99 in
  (match Fault.Retry.run_n ~key:"t" f with
   | Ok _ -> Alcotest.fail "must exhaust"
   | Error (attempts, E.Io_failure _) -> check_int "attempts reported" 3 attempts
   | Error (_, e) -> Alcotest.failf "wrong error: %s" (E.to_string e));
  check_int "no extra calls" 3 !calls;
  (* attempts = 1 means no retry at all *)
  let calls, f = flaky 99 in
  (match Fault.Retry.run ~policy:(Fault.Retry.immediate 1) ~key:"t" f with
   | Ok _ -> Alcotest.fail "must fail"
   | Error _ -> ());
  check_int "single attempt" 1 !calls

let test_retry_filters () =
  (* non-retryable errors are returned on the first failure *)
  List.iter
    (fun e ->
      check_bool (E.to_string e ^ " not retryable") false (Fault.Retry.retryable e);
      let calls = ref 0 in
      (match Fault.Retry.run ~key:"t" (fun ~attempt ->
           ignore attempt; incr calls; Error e) with
       | Ok _ -> Alcotest.fail "must fail"
       | Error _ -> ());
      check_int "no retry" 1 !calls)
    [ E.Deadline_exceeded { context = "c" };
      E.Overloaded { queue_depth = 1; retry_after_ms = 5 };
      E.Draining;
      E.Protocol { reason = "r" };
      E.Invariant { context = "c"; reason = "r" } ];
  check_bool "io retryable" true
    (Fault.Retry.retryable (E.Io_failure { path = "p"; reason = "r" }));
  (* should_abort stops the loop between attempts (deadline wiring) *)
  let calls, f = flaky 99 in
  (match Fault.Retry.run ~should_abort:(fun () -> !calls >= 1) ~key:"t" f with
   | Ok _ -> Alcotest.fail "must fail"
   | Error _ -> ());
  check_int "aborted after first failure" 1 !calls

let test_retry_delays () =
  let p = Fault.Retry.default in
  (* attempt 1 is the initial try: never delayed *)
  check_int "no delay before first try" 0 (Fault.Retry.delay_ns p ~key:"k" ~attempt:1);
  (* deterministic in (policy, key, attempt); different keys de-sync *)
  let d2 = Fault.Retry.delay_ns p ~key:"k" ~attempt:2 in
  let d3 = Fault.Retry.delay_ns p ~key:"k" ~attempt:3 in
  check_int "stable" d2 (Fault.Retry.delay_ns p ~key:"k" ~attempt:2);
  check_bool "jitter de-syncs keys" true
    (Fault.Retry.delay_ns p ~key:"other" ~attempt:2 <> d2);
  (* exponential envelope: jitter removes at most [jitter] of the delay
     and the un-jittered delay is capped *)
  let base = p.Fault.Retry.base_delay_ns in
  check_bool "d2 within envelope" true
    (d2 >= int_of_float (float_of_int base *. (1. -. p.Fault.Retry.jitter))
     && d2 <= base);
  check_bool "d3 grows" true (d3 > d2);
  let far = Fault.Retry.delay_ns p ~key:"k" ~attempt:30 in
  check_bool "capped" true (far <= p.Fault.Retry.max_delay_ns);
  (* immediate: all delays zero, sleeper never called *)
  let sleeps = ref 0 in
  let calls, f = flaky 2 in
  ignore !calls;
  (match Fault.Retry.run ~policy:(Fault.Retry.immediate 5)
           ~sleep:(fun ns -> if ns > 0 then incr sleeps) ~key:"t" f with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "retry gave up: %s" (E.to_string e));
  check_int "immediate never sleeps" 0 !sleeps

let () =
  Alcotest.run "fault"
    [ ( "error",
        [ Alcotest.test_case "to_string" `Quick test_to_string;
          Alcotest.test_case "injected_points" `Quick test_injected_points;
          Alcotest.test_case "of_exn" `Quick test_of_exn ] );
      ( "inject",
        [ Alcotest.test_case "arm_spec ok" `Quick test_arm_spec_ok;
          Alcotest.test_case "arm_spec errors" `Quick test_arm_spec_errors;
          Alcotest.test_case "keyed triggers" `Quick test_triggers_keyed;
          Alcotest.test_case "counter fallback" `Quick
            test_trigger_counter_fallback;
          Alcotest.test_case "prob deterministic" `Quick
            test_prob_deterministic;
          Alcotest.test_case "point raises" `Quick test_point_raises;
          Alcotest.test_case "protect" `Quick test_protect ] );
      ( "pool",
        [ Alcotest.test_case "task injection contained" `Quick
            test_pool_task_injection;
          Alcotest.test_case "matrix victims on every pool size" `Quick
            test_matrix_pool_task_victims ] );
      ( "db_encryptor",
        [ Alcotest.test_case "partial results" `Quick
            test_encrypt_table_partial;
          Alcotest.test_case "bounded retry" `Quick test_encrypt_table_retry;
          Alcotest.test_case "faults off: bit-identical" `Quick
            test_faults_off_identical;
          Alcotest.test_case "noise pool injection" `Quick
            test_noise_pool_injection ] );
      ( "dist_matrix",
        [ Alcotest.test_case "eval injection" `Quick
            test_dist_matrix_injection ] );
      ( "retry",
        [ Alcotest.test_case "attempt accounting" `Quick test_retry_accounting;
          Alcotest.test_case "retryable filter + abort" `Quick
            test_retry_filters;
          Alcotest.test_case "deterministic backoff" `Quick
            test_retry_delays ] ) ]

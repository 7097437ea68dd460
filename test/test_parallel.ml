(* Tests for the parallel subsystem (PR 1): domain pool semantics,
   parallel == sequential distance matrices, OPE/DET cache transparency,
   and deterministic bulk encryption across pool sizes. *)

let keyring = Crypto.Keyring.of_passphrase "test-parallel"

let with_pool ?domains f =
  let p = Parallel.Pool.create ?domains () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown p) (fun () -> f p)

(* ---- pool semantics ---- *)

let test_pool_sizes () =
  with_pool ~domains:1 (fun p ->
      Alcotest.(check int) "1 lane" 1 (Parallel.Pool.size p));
  with_pool ~domains:4 (fun p ->
      Alcotest.(check int) "4 lanes" 4 (Parallel.Pool.size p));
  with_pool ~domains:0 (fun p ->
      Alcotest.(check int) "clamped to 1" 1 (Parallel.Pool.size p));
  with_pool ~domains:(-3) (fun p ->
      Alcotest.(check int) "negative clamped" 1 (Parallel.Pool.size p))

let test_map_edge_cases () =
  List.iter
    (fun domains ->
      with_pool ~domains (fun p ->
          Alcotest.(check (array int)) "n=0" [||]
            (Parallel.Pool.map_range p 0 (fun i -> i));
          Alcotest.(check (array int)) "n=1" [| 100 |]
            (Parallel.Pool.map_range p 1 (fun i -> i + 100));
          Alcotest.(check (array int)) "n=1000"
            (Array.init 1000 (fun i -> i * i))
            (Parallel.Pool.map_range p 1000 (fun i -> i * i));
          Alcotest.(check (array string)) "map_array"
            [| "0a"; "1b"; "2c" |]
            (Parallel.Pool.mapi_array p
               (fun i s -> string_of_int i ^ s)
               [| "a"; "b"; "c" |])))
    [ 1; 2; 4 ]

let test_for_range_covers_once () =
  with_pool ~domains:4 (fun p ->
      let n = 513 in
      let hits = Array.make n 0 in
      let lock = Mutex.create () in
      Parallel.Pool.for_range p n (fun i ->
          Mutex.lock lock;
          hits.(i) <- hits.(i) + 1;
          Mutex.unlock lock);
      Alcotest.(check (array int)) "each index exactly once"
        (Array.make n 1) hits;
      (* n = 0: the closure must never run, so even a raising body
         produces an empty containment report *)
      Alcotest.(check int) "n=0 reports nothing" 0
        (List.length
           (Parallel.Pool.for_range_r p 0 (fun _ ->
                raise (Failure "must not run")))))

let test_exception_propagates () =
  with_pool ~domains:2 (fun p ->
      let ran = ref 0 in
      let lock = Mutex.create () in
      let bump () = Mutex.lock lock; incr ran; Mutex.unlock lock in
      (match
         Parallel.Pool.run_tasks p
           [ bump; (fun () -> raise (Failure "boom")); bump; bump ]
       with
       | () -> Alcotest.fail "expected Failure"
       | exception Failure m -> Alcotest.(check string) "message" "boom" m);
      Alcotest.(check int) "other tasks still ran" 3 !ran)

let test_contained_crash () =
  with_pool ~domains:2 (fun p ->
      let before = Parallel.Pool.lane_crashes () in
      let ran = ref 0 in
      let lock = Mutex.create () in
      let bump () = Mutex.lock lock; incr ran; Mutex.unlock lock in
      let errs =
        Parallel.Pool.run_tasks_r p
          [ bump; (fun () -> raise (Failure "boom")); bump; bump ]
      in
      (* the crash is contained as a typed per-task error: every other
         task ran, the batch completed, no worker domain died *)
      (match errs with
       | [ (1, Fault.Error.Unexpected _) ] -> ()
       | _ -> Alcotest.fail "expected exactly task 1 to be contained");
      Alcotest.(check int) "other tasks still ran" 3 !ran;
      Alcotest.(check int) "no lane died" before (Parallel.Pool.lane_crashes ());
      (* the pool is still fully operational after the contained crash *)
      Alcotest.(check (array int)) "pool still works"
        (Array.init 100 (fun i -> i * 2))
        (Parallel.Pool.map_range p 100 (fun i -> i * 2)))

let test_map_range_r_contains () =
  List.iter
    (fun domains ->
      with_pool ~domains (fun p ->
          let res =
            Parallel.Pool.map_range_r p 9 (fun i ->
                if i mod 4 = 2 then raise (Failure "bad slot") else i * 10)
          in
          Array.iteri
            (fun i r ->
              match r with
              | Ok v -> Alcotest.(check int) "good slot" (i * 10) v
              | Error (Fault.Error.Unexpected _) ->
                Alcotest.(check bool) "only armed slots fail" true (i mod 4 = 2)
              | Error e -> Alcotest.fail (Fault.Error.to_string e))
            res))
    [ 1; 2; 4 ]

let test_nested_pool_use () =
  with_pool ~domains:3 (fun p ->
      let total =
        Parallel.Pool.map_range p 8 (fun i ->
            Array.fold_left ( + ) 0
              (Parallel.Pool.map_range p 50 (fun j -> (i * 50) + j)))
        |> Array.fold_left ( + ) 0
      in
      Alcotest.(check int) "nested sum" (400 * 399 / 2) total)

(* ---- distance matrices ---- *)

let pseudo_distance i j =
  (* pure, irregular, cheap *)
  Float.abs (sin (float_of_int ((i * 7919) lxor (j * 104729))))

let check_same_matrix name a b =
  Alcotest.(check bool) name true (a = b)

(* the sequential reference: the naive row-by-row upper-triangle loop,
   mirrored — what every pooled builder must reproduce bit for bit *)
let naive_matrix n d =
  let m = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let v = d i j in
      m.(i).(j) <- v;
      m.(j).(i) <- v
    done
  done;
  m

let test_of_fun_matches_seq () =
  let n = 200 in
  let reference = naive_matrix n pseudo_distance in
  List.iter
    (fun domains ->
      with_pool ~domains (fun p ->
          check_same_matrix
            (Printf.sprintf "n=%d domains=%d" n domains)
            reference
            (Mining.Dist_matrix.of_fun ~pool:p n pseudo_distance)))
    [ 1; 2; 3; 4 ];
  with_pool ~domains:4 (fun p ->
      List.iter
        (fun n ->
          check_same_matrix
            (Printf.sprintf "small n=%d" n)
            (naive_matrix n pseudo_distance)
            (Mining.Dist_matrix.of_fun ~pool:p n pseudo_distance))
        [ 0; 1; 2; 5; 63; 65 ])

let test_measure_matrix_matches_seq () =
  let log =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 80; templates = 4; seed = "par-mm";
        caps = Workload.Gen_query.caps_full }
  in
  let qs = Array.of_list log in
  let ctx = Distance.Measure.default_ctx in
  List.iter
    (fun m ->
      let reference =
        naive_matrix (Array.length qs) (fun i j ->
            Distance.Measure.compute ctx m qs.(i) qs.(j))
      in
      with_pool ~domains:3 (fun p ->
          check_same_matrix
            ("measure " ^ Distance.Measure.to_string m)
            reference
            (Distance.Measure.matrix ~pool:p ctx m log)))
    [ Distance.Measure.Token; Distance.Measure.Edit;
      Distance.Measure.Structure; Distance.Measure.Access ]

(* ---- dist-matrix satellites: validate / max_abs_diff ---- *)

let test_validate () =
  let ok = naive_matrix 5 pseudo_distance in
  Alcotest.(check bool) "valid" true (Mining.Dist_matrix.validate ok = Ok ());
  let asym = Array.map Array.copy ok in
  asym.(1).(3) <- asym.(1).(3) +. 1.0;
  Alcotest.(check bool) "asymmetry detected" true
    (Result.is_error (Mining.Dist_matrix.validate asym));
  let neg = Array.map Array.copy ok in
  neg.(0).(2) <- -1.0;
  neg.(2).(0) <- -1.0;
  Alcotest.(check bool) "negative detected" true
    (Result.is_error (Mining.Dist_matrix.validate neg));
  let diag = Array.map Array.copy ok in
  diag.(2).(2) <- 0.5;
  Alcotest.(check bool) "diagonal detected" true
    (Result.is_error (Mining.Dist_matrix.validate diag));
  let ragged = [| [| 0.0; 1.0 |]; [| 1.0 |] |] in
  Alcotest.(check bool) "ragged detected" true
    (Result.is_error (Mining.Dist_matrix.validate ragged))

let test_max_abs_diff () =
  let a = naive_matrix 6 pseudo_distance in
  Alcotest.(check (float 0.0)) "self" 0.0 (Mining.Dist_matrix.max_abs_diff a a);
  let b = Array.map Array.copy a in
  b.(2).(4) <- b.(2).(4) +. 0.25;
  b.(4).(2) <- b.(2).(4);
  Alcotest.(check (float 1e-12)) "perturbed" 0.25
    (Mining.Dist_matrix.max_abs_diff a b)

(* ---- OPE cache transparency & exact-uniform draws ---- *)

let test_ope_cache_transparent () =
  let params = { Crypto.Ope.plain_bits = 16; cipher_bits = 24 } in
  let mk () = Crypto.Ope.create ~master:"ope-cache" ~purpose:"t" params in
  let k1 = mk () and k2 = mk () in
  let rng = Crypto.Drbg.create ~seed:"ope-cache-test" in
  let plains = List.init 400 (fun _ -> Crypto.Drbg.uniform_int rng 300) in
  List.iter
    (fun m ->
      let c_warm = Crypto.Ope.encrypt k1 m in
      (* k2 sees each plaintext for the first time later / in a different
         order; the memo must be invisible *)
      Alcotest.(check int) "cached = fresh" (Crypto.Ope.encrypt k2 m) c_warm;
      Alcotest.(check int) "hit = first" c_warm (Crypto.Ope.encrypt k1 m);
      Alcotest.(check (option int)) "roundtrip" (Some m)
        (Crypto.Ope.decrypt k1 c_warm))
    plains;
  Alcotest.(check bool) "memo populated" true ((Crypto.Ope.cache_stats k1).Crypto.Ope.size > 0);
  let m = List.hd plains in
  let before = Crypto.Ope.encrypt k1 m in
  Crypto.Ope.cache_clear k1;
  Alcotest.(check int) "clear preserves ciphertexts" before
    (Crypto.Ope.encrypt k1 m)

let test_ope_monotone () =
  let k =
    Crypto.Ope.create ~master:"ope-mono" ~purpose:"t"
      { Crypto.Ope.plain_bits = 12; cipher_bits = 20 }
  in
  let n = 1 lsl 12 in
  let cs = Array.init n (Crypto.Ope.encrypt k) in
  Alcotest.(check bool) "strictly monotone" true
    (Array.for_all Fun.id (Array.init (n - 1) (fun i -> cs.(i) < cs.(i + 1))));
  Alcotest.(check bool) "in range" true
    (Array.for_all (fun c -> c >= 0 && c < 1 lsl 20) cs)

let test_det_cache_transparent () =
  let k = Crypto.Det.key_of_master ~master:"det-cache" ~purpose:"t" in
  let cache = Crypto.Det.make_cache ~bound:8 () in
  List.iter
    (fun msg ->
      let plain = Crypto.Det.encrypt k msg in
      Alcotest.(check string) "miss = plain encrypt" plain
        (Crypto.Det.encrypt_cached cache k msg);
      Alcotest.(check string) "hit = plain encrypt" plain
        (Crypto.Det.encrypt_cached cache k msg))
    (List.init 40 (fun i -> "msg-" ^ string_of_int (i mod 13)))

(* ---- deterministic bulk encryption ---- *)

let result_scheme log = Dpe.Selector.select Distance.Measure.Result
    (Dpe.Log_profile.of_log log)

let test_encrypt_table_deterministic () =
  let log =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 30; templates = 4; seed = "par-db";
        caps = Workload.Gen_query.caps_for_measure Distance.Measure.Result }
  in
  let scheme = result_scheme log in
  let db = Workload.Gen_db.skyserver ~seed:"par-db" ~rows:80 in
  let encrypt_with pool =
    (* a fresh encryptor per run: bulk output must not depend on any
       encryptor-internal stream state *)
    let enc = Dpe.Encryptor.create keyring scheme in
    Dpe.Db_encryptor.encrypt_database ~pool enc db
  in
  let tables d =
    List.map
      (fun t -> (Minidb.Table.schema t, Minidb.Table.rows t))
      (Minidb.Database.tables d)
  in
  let reference = with_pool ~domains:1 (fun p -> tables (encrypt_with p)) in
  List.iter
    (fun domains ->
      with_pool ~domains (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "domains=%d == sequential" domains)
            true
            (tables (encrypt_with p) = reference)))
    [ 1; 2; 4 ]

let test_hom_pool_identical () =
  (* HOM columns must produce bit-identical ciphertext for every
     (domains, noise-pool) configuration: pool off, prewarmed, and a
     tiny-capacity pool that forces most cells to miss.  [caps_full]
     keeps SUM templates in the log so the selector assigns C_hom. *)
  let log =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 40; templates = 6; seed = "par-hom";
        caps = Workload.Gen_query.caps_full }
  in
  (* an explicit SUM query guarantees the HOM column regardless of which
     templates the generator sampled *)
  let sum_q =
    match
      Sqlir.Parser.parse_result
        "SELECT class, SUM(redshift) AS total FROM photoobj GROUP BY class"
    with
    | Ok q -> q
    | Error e -> Alcotest.fail e
  in
  let scheme = result_scheme (sum_q :: log) in
  Alcotest.(check bool) "scheme has a HOM column" true
    (Dpe.Scheme.class_for_attr scheme "redshift" = Dpe.Scheme.C_hom);
  let db = Workload.Gen_db.skyserver ~seed:"par-hom" ~rows:24 in
  let tables d =
    List.map
      (fun t -> (Minidb.Table.schema t, Minidb.Table.rows t))
      (Minidb.Database.tables d)
  in
  let reference =
    with_pool ~domains:1 (fun p ->
        let enc = Dpe.Encryptor.create keyring scheme in
        tables (Dpe.Db_encryptor.encrypt_database ~pool:p enc db))
  in
  List.iter
    (fun domains ->
      with_pool ~domains (fun p ->
          (* fully prewarmed pool *)
          let enc = Dpe.Encryptor.create keyring scheme in
          let filled, errs = Dpe.Db_encryptor.prewarm_hom_noise_r ~pool:p enc db in
          Alcotest.(check (list string)) "prewarm clean" []
            (List.map Fault.Error.to_string errs);
          Alcotest.(check bool) "prewarm filled cells" true (filled > 0);
          Alcotest.(check bool)
            (Printf.sprintf "domains=%d warm pool == pool-off" domains)
            true
            (tables (Dpe.Db_encryptor.encrypt_database ~pool:p enc db) = reference);
          (* near-empty pool: capacity 3 forces misses on most cells *)
          let enc2 = Dpe.Encryptor.create keyring scheme in
          let _ = Dpe.Db_encryptor.prewarm_hom_noise_r ~pool:p ~capacity:3 enc2 db in
          Alcotest.(check bool)
            (Printf.sprintf "domains=%d capacity-3 pool == pool-off" domains)
            true
            (tables (Dpe.Db_encryptor.encrypt_database ~pool:p enc2 db) = reference)))
    [ 1; 2; 4 ]

let test_encrypt_table_roundtrip () =
  let log =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 30; templates = 4; seed = "par-rt";
        caps = Workload.Gen_query.caps_for_measure Distance.Measure.Result }
  in
  let enc = Dpe.Encryptor.create keyring (result_scheme log) in
  let db = Workload.Gen_db.skyserver ~seed:"par-rt" ~rows:60 in
  with_pool ~domains:4 (fun p ->
      List.iter
        (fun table ->
          let cipher, errs = Dpe.Db_encryptor.encrypt_table_r ~pool:p enc table in
          Alcotest.(check int) "no row errors" 0 (List.length errs);
          match
            Dpe.Db_encryptor.decrypt_table enc
              ~plain_schema:(Minidb.Table.schema table) cipher
          with
          | Error e -> Alcotest.fail e
          | Ok back ->
            Alcotest.(check bool) "decrypt inverts parallel encrypt" true
              (Minidb.Table.rows back = Minidb.Table.rows table))
        (Minidb.Database.tables db))

(* ---- deadlines (DESIGN.md §14) ---- *)

let far_future = Obs.now_ns () + 3_600_000_000_000

let test_deadline_install () =
  Alcotest.(check bool) "no ambient deadline" true
    (Parallel.Pool.current_deadline_ns () = None);
  Parallel.Pool.with_deadline ~deadline_ns:far_future (fun () ->
      Alcotest.(check bool) "installed" true
        (Parallel.Pool.current_deadline_ns () = Some far_future);
      Alcotest.(check bool) "not expired" false
        (Parallel.Pool.deadline_expired ());
      (* nesting only tightens: a looser inner deadline is ignored... *)
      Parallel.Pool.with_deadline ~deadline_ns:(far_future + 1) (fun () ->
          Alcotest.(check bool) "no loosening" true
            (Parallel.Pool.current_deadline_ns () = Some far_future));
      (* ...and a tighter one wins, then restores *)
      Parallel.Pool.with_deadline ~deadline_ns:(far_future - 1) (fun () ->
          Alcotest.(check bool) "tightened" true
            (Parallel.Pool.current_deadline_ns () = Some (far_future - 1)));
      Alcotest.(check bool) "restored after nest" true
        (Parallel.Pool.current_deadline_ns () = Some far_future));
  Alcotest.(check bool) "uninstalled" true
    (Parallel.Pool.current_deadline_ns () = None)

let test_deadline_expiry () =
  Alcotest.(check bool) "blind without deadline" false
    (Parallel.Pool.deadline_expired ());
  Parallel.Pool.check_deadline ~context:"test" ();
  Parallel.Pool.with_deadline ~deadline_ns:1 (fun () ->
      Alcotest.(check bool) "past deadline expired" true
        (Parallel.Pool.deadline_expired ());
      match Parallel.Pool.check_deadline ~context:"test" () with
      | () -> Alcotest.fail "check_deadline did not raise"
      | exception Fault.Error.E (Fault.Error.Deadline_exceeded { context }) ->
        Alcotest.(check string) "context carried" "test" context)

let test_deadline_r_combinators () =
  (* an expired deadline makes the _r combinators abandon every index
     with a typed error instead of computing *)
  with_pool ~domains:2 (fun p ->
      Parallel.Pool.with_deadline ~deadline_ns:1 (fun () ->
          let ran = Atomic.make 0 in
          (match Parallel.Pool.map_range_r p 16 (fun i -> Atomic.incr ran; i) with
           | rs ->
             Alcotest.(check int) "map_range_r: no task body ran" 0
               (Atomic.get ran);
             Array.iter
               (fun r ->
                 match r with
                 | Error (Fault.Error.Deadline_exceeded _) -> ()
                 | Error e -> Alcotest.failf "wrong error: %s" (Fault.Error.to_string e)
                 | Ok _ -> Alcotest.fail "index computed past its deadline")
               rs);
          let errs = Parallel.Pool.for_range_r p 8 (fun _ -> Atomic.incr ran) in
          Alcotest.(check int) "for_range_r abandons all" 8 (List.length errs);
          Alcotest.(check bool) "all deadline errors" true
            (List.for_all
               (fun (_, e) ->
                 match e with Fault.Error.Deadline_exceeded _ -> true | _ -> false)
               errs)))

let test_deadline_thread_isolation () =
  (* regression: deadline slots are per sys-thread.  A single shared
     domain-local slot let two threads interleave their save/restores,
     permanently installing a stale expired deadline — here a churn
     thread installs and drops 1 ns deadlines while the main thread
     holds a far-future one; neither may observe the other's *)
  let stop = Atomic.make false in
  let churn_ok = Atomic.make true in
  let churn =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          Parallel.Pool.with_deadline ~deadline_ns:1 (fun () ->
              if not (Parallel.Pool.deadline_expired ()) then
                Atomic.set churn_ok false;
              Thread.yield ())
        done)
      ()
  in
  let leaked = ref false in
  Parallel.Pool.with_deadline ~deadline_ns:far_future (fun () ->
      for _ = 1 to 2000 do
        if
          Parallel.Pool.deadline_expired ()
          || Parallel.Pool.current_deadline_ns () <> Some far_future
        then leaked := true;
        Thread.yield ()
      done);
  Atomic.set stop true;
  Thread.join churn;
  Alcotest.(check bool) "churn thread saw its own deadline" true
    (Atomic.get churn_ok);
  Alcotest.(check bool) "no cross-thread deadline leak" false !leaked;
  Alcotest.(check bool) "slot clean after both scopes" true
    (Parallel.Pool.current_deadline_ns () = None
    && not (Parallel.Pool.deadline_expired ()))

let test_deadline_plain_blind () =
  (* the plain combinators owe a complete result: they ignore deadlines *)
  with_pool ~domains:2 (fun p ->
      Parallel.Pool.with_deadline ~deadline_ns:1 (fun () ->
          Alcotest.(check (array int)) "map_range completes"
            (Array.init 16 (fun i -> i * 3))
            (Parallel.Pool.map_range p 16 (fun i -> i * 3))))

let () =
  Alcotest.run "parallel"
    [ ("pool",
       [ Alcotest.test_case "sizes & clamping" `Quick test_pool_sizes;
         Alcotest.test_case "map edge cases" `Quick test_map_edge_cases;
         Alcotest.test_case "for_range covers once" `Quick
           test_for_range_covers_once;
         Alcotest.test_case "exception propagates" `Quick
           test_exception_propagates;
         Alcotest.test_case "contained crash" `Quick test_contained_crash;
         Alcotest.test_case "map_range_r contains" `Quick
           test_map_range_r_contains;
         Alcotest.test_case "nested use" `Quick test_nested_pool_use ]);
      ("deadline",
       [ Alcotest.test_case "install/nest/restore" `Quick test_deadline_install;
         Alcotest.test_case "expiry + check raises" `Quick test_deadline_expiry;
         Alcotest.test_case "_r combinators abandon" `Quick
           test_deadline_r_combinators;
         Alcotest.test_case "per-thread isolation" `Quick
           test_deadline_thread_isolation;
         Alcotest.test_case "plain combinators blind" `Quick
           test_deadline_plain_blind ]);
      ("dist-matrix",
       [ Alcotest.test_case "of_fun == sequential" `Quick
           test_of_fun_matches_seq;
         Alcotest.test_case "measure matrix == sequential" `Quick
           test_measure_matrix_matches_seq;
         Alcotest.test_case "validate short-circuits" `Quick test_validate;
         Alcotest.test_case "max_abs_diff upper triangle" `Quick
           test_max_abs_diff ]);
      ("caches",
       [ Alcotest.test_case "OPE memo transparent" `Quick
           test_ope_cache_transparent;
         Alcotest.test_case "OPE still monotone" `Quick test_ope_monotone;
         Alcotest.test_case "DET memo transparent" `Quick
           test_det_cache_transparent ]);
      ("bulk-encryption",
       [ Alcotest.test_case "deterministic across pool sizes" `Quick
           test_encrypt_table_deterministic;
         Alcotest.test_case "HOM noise pool bit-identical" `Quick
           test_hom_pool_identical;
         Alcotest.test_case "parallel encrypt decrypts" `Quick
           test_encrypt_table_roundtrip ]) ]

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_gen_db () =
  let db = Workload.Gen_db.skyserver ~seed:"t" ~rows:100 in
  check_bool "photoobj exists" true (Minidb.Database.find db "photoobj" <> None);
  check_bool "specobj exists" true (Minidb.Database.find db "specobj" <> None);
  check_int "photoobj rows" 100
    (Minidb.Table.cardinality (Minidb.Database.find_exn db "photoobj"));
  check_int "specobj rows" 50
    (Minidb.Table.cardinality (Minidb.Database.find_exn db "specobj"));
  (* determinism *)
  let db2 = Workload.Gen_db.skyserver ~seed:"t" ~rows:100 in
  check_bool "same seed same data" true
    (Minidb.Table.rows (Minidb.Database.find_exn db "photoobj")
     = Minidb.Table.rows (Minidb.Database.find_exn db2 "photoobj"));
  let db3 = Workload.Gen_db.skyserver ~seed:"u" ~rows:100 in
  check_bool "different seed different data" true
    (Minidb.Table.rows (Minidb.Database.find_exn db "photoobj")
     <> Minidb.Table.rows (Minidb.Database.find_exn db3 "photoobj"));
  (* values live in the declared domains *)
  let info = Workload.Gen_db.skyserver_info in
  let ra = Workload.Gen_db.column info "ra" in
  List.iter
    (fun v ->
      match v with
      | Minidb.Value.Vint n ->
        check_bool "ra in domain" true (n >= ra.Workload.Gen_db.lo && n <= ra.Workload.Gen_db.hi)
      | _ -> Alcotest.fail "ra should be int")
    (Minidb.Table.column_values (Minidb.Database.find_exn db "photoobj") "ra");
  (* retail *)
  let rdb = Workload.Gen_db.retail ~seed:"t" ~rows:60 in
  check_bool "sales exists" true (Minidb.Database.find rdb "sales" <> None);
  check_bool "column lookup" true
    (try ignore (Workload.Gen_db.column Workload.Gen_db.retail_info "nope"); false
     with Not_found -> true)

let test_gen_query () =
  let p = { Workload.Gen_query.n = 50; templates = 5; seed = "q";
            caps = Workload.Gen_query.caps_full } in
  let log = Workload.Gen_query.skyserver_log p in
  check_int "log size" 50 (List.length log);
  (* deterministic *)
  check_bool "same seed same log" true
    (log = Workload.Gen_query.skyserver_log p);
  check_bool "different seed different log" true
    (log <> Workload.Gen_query.skyserver_log { p with seed = "q2" });
  (* all queries print/parse *)
  List.iter
    (fun q ->
      let s = Sqlir.Printer.to_string q in
      match Sqlir.Parser.parse_result s with
      | Ok q' -> check_bool "roundtrip" true (Sqlir.Ast.equal_query q q')
      | Error e -> Alcotest.failf "generated query invalid: %s (%s)" s e)
    log;
  (* labels align *)
  let labelled = Workload.Gen_query.skyserver_log_labelled p in
  check_bool "labelled log matches" true (List.map snd labelled = log);
  check_bool "labels in range" true
    (List.for_all (fun (l, _) -> l >= 0 && l < 5) labelled);
  check_bool "several distinct labels" true
    (List.length (List.sort_uniq compare (List.map fst labelled)) >= 3)

let test_caps () =
  let has_like log =
    List.exists
      (fun q ->
        match q.Sqlir.Ast.where with
        | Some p ->
          List.exists
            (function Sqlir.Ast.Like _ -> true | _ -> false)
            (Sqlir.Ast.predicate_atoms p)
        | None -> false)
      log
  in
  let has_sum log =
    List.exists
      (fun q ->
        List.exists
          (function
            | Sqlir.Ast.Sel_agg ((Sqlir.Ast.Sum | Sqlir.Ast.Avg), _, _) -> true
            | _ -> false)
          q.Sqlir.Ast.select)
      log
  in
  let result_caps = Workload.Gen_query.caps_for_measure Distance.Measure.Result in
  (* across many seeds, result-safe logs never contain LIKE or SUM *)
  for seed = 0 to 9 do
    let log =
      Workload.Gen_query.skyserver_log
        { Workload.Gen_query.n = 30; templates = 4;
          seed = string_of_int seed; caps = result_caps }
    in
    check_bool "no LIKE under result caps" false (has_like log);
    check_bool "no SUM under result caps" false (has_sum log)
  done

let test_executability () =
  (* every result-safe generated query runs on the generated database *)
  let db = Workload.Gen_db.skyserver ~seed:"exec" ~rows:80 in
  let log =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 40; templates = 4; seed = "exec";
        caps = Workload.Gen_query.caps_for_measure Distance.Measure.Result }
  in
  List.iter
    (fun q ->
      match Minidb.Executor.run db q with
      | _ -> ()
      | exception Minidb.Executor.Exec_error e ->
        Alcotest.failf "generated query does not execute: %s (%s)"
          (Sqlir.Printer.to_string q) (Minidb.Executor.error_to_string e))
    log;
  let rdb = Workload.Gen_db.retail ~seed:"exec" ~rows:80 in
  let rlog =
    Workload.Gen_query.retail_log
      { Workload.Gen_query.n = 40; templates = 4; seed = "exec";
        caps = Workload.Gen_query.caps_for_measure Distance.Measure.Result }
  in
  List.iter
    (fun q ->
      match Minidb.Executor.run rdb q with
      | _ -> ()
      | exception Minidb.Executor.Exec_error e ->
        Alcotest.failf "retail query does not execute: %s (%s)"
          (Sqlir.Printer.to_string q) (Minidb.Executor.error_to_string e))
    rlog

let test_cluster_structure () =
  (* queries from the same template should be closer (structure distance)
     than queries from different templates, on average *)
  let p = { Workload.Gen_query.n = 60; templates = 4; seed = "cluster";
            caps = Workload.Gen_query.caps_full } in
  let labelled = Workload.Gen_query.skyserver_log_labelled p in
  let intra = ref [] and inter = ref [] in
  List.iteri
    (fun i (li, qi) ->
      List.iteri
        (fun j (lj, qj) ->
          if i < j then begin
            let d =
              Distance.Measure.compute Distance.Measure.default_ctx
                Distance.Measure.Structure qi qj
            in
            if li = lj then intra := d :: !intra else inter := d :: !inter
          end)
        labelled)
    labelled;
  let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
  check_bool "intra-template closer than inter-template" true
    (mean !intra < mean !inter)

let test_log_io () =
  let log =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 15; templates = 3; seed = "io";
        caps = Workload.Gen_query.caps_full }
  in
  (match Workload.Log_io.of_string (Workload.Log_io.to_string log) with
   | Ok log2 -> check_bool "string roundtrip" true (log = log2)
   | Error e -> Alcotest.failf "log_io: %s" e);
  (* comments and blanks skipped; errors carry line numbers *)
  (match Workload.Log_io.of_string "# header\n\nSELECT a FROM r\n" with
   | Ok [ _ ] -> ()
   | _ -> Alcotest.fail "comment handling");
  (match Workload.Log_io.of_string "SELECT a FROM r\nnot sql\n" with
   | Error e -> check_bool "line number in error" true
       (String.length e >= 7 && String.sub e 0 7 = "line 2:")
   | Ok _ -> Alcotest.fail "expected parse failure");
  let path = Filename.temp_file "kitdpe" ".sql" in
  (match Workload.Log_io.save path log with
   | Ok () ->
     (match Workload.Log_io.load path with
      | Ok log2 -> check_bool "file roundtrip" true (log = log2)
      | Error e -> Alcotest.failf "load: %s" e)
   | Error e -> Alcotest.failf "save: %s" e);
  Sys.remove path

let () =
  Alcotest.run "workload"
    [ ("gen_db", [ Alcotest.test_case "databases" `Quick test_gen_db ]);
      ("gen_query",
       [ Alcotest.test_case "logs" `Quick test_gen_query;
         Alcotest.test_case "caps" `Quick test_caps;
         Alcotest.test_case "executability" `Quick test_executability;
         Alcotest.test_case "cluster structure" `Quick test_cluster_structure ]);
      ("log_io", [ Alcotest.test_case "log files" `Quick test_log_io ]) ]

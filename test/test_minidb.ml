module Value = Minidb.Value
module Schema = Minidb.Schema
module Table = Minidb.Table
module Database = Minidb.Database
module Executor = Minidb.Executor

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let v_int n = Value.Vint n
let v_str s = Value.Vstring s

let users_schema =
  Schema.make ~rel:"users"
    [ ("id", Value.Tint); ("name", Value.Tstring); ("age", Value.Tint);
      ("city", Value.Tstring) ]

let users =
  Table.of_rows users_schema
    [ [| v_int 1; v_str "alice"; v_int 30; v_str "berlin" |];
      [| v_int 2; v_str "bob"; v_int 25; v_str "paris" |];
      [| v_int 3; v_str "carol"; v_int 35; v_str "berlin" |];
      [| v_int 4; v_str "dave"; Value.Vnull; v_str "rome" |];
      [| v_int 5; v_str "eve"; v_int 25; v_str "berlin" |] ]

let orders_schema =
  Schema.make ~rel:"orders"
    [ ("oid", Value.Tint); ("uid", Value.Tint); ("amount", Value.Tint) ]

let orders =
  Table.of_rows orders_schema
    [ [| v_int 10; v_int 1; v_int 100 |];
      [| v_int 11; v_int 1; v_int 50 |];
      [| v_int 12; v_int 2; v_int 70 |];
      [| v_int 13; v_int 3; v_int 30 |];
      [| v_int 14; v_int 9; v_int 10 |] ]

let db = Database.(add_table (add_table empty users) orders)

let run s = Executor.run db (Sqlir.Parser.parse s)
let tuples s = (run s).Executor.tuples
let rows_str s =
  List.map
    (fun t -> String.concat "," (List.map Value.to_string t))
    (tuples s)

(* ---- value semantics ---- *)

let test_values () =
  check_bool "int/float compare" true (Value.compare_sql (v_int 2) (Value.Vfloat 2.0) = Some 0);
  check_bool "null incomparable" true (Value.compare_sql Value.Vnull (v_int 1) = None);
  check_bool "str/int incomparable" true (Value.compare_sql (v_str "a") (v_int 1) = None);
  check_bool "like basic" true (Value.like_match ~pattern:"a%" "abc");
  check_bool "like underscore" true (Value.like_match ~pattern:"a_c" "abc");
  check_bool "like empty pattern" false (Value.like_match ~pattern:"" "abc");
  check_bool "like percent only" true (Value.like_match ~pattern:"%" "");
  check_bool "like middle" true (Value.like_match ~pattern:"%b%" "abc");
  check_bool "like no match" false (Value.like_match ~pattern:"b%" "abc");
  check_bool "const roundtrip" true
    (Value.to_const (v_int 5) = Some (Sqlir.Ast.Cint 5));
  check_bool "null has no const" true (Value.to_const Value.Vnull = None)

let test_schema_table () =
  check_int "arity" 4 (Schema.arity users_schema);
  check_bool "index_of" true (Schema.index_of users_schema "age" = Some 2);
  check_bool "index_of missing" true (Schema.index_of users_schema "nope" = None);
  check_bool "column_type" true (Schema.column_type users_schema "name" = Some Value.Tstring);
  Alcotest.check_raises "duplicate columns"
    (Invalid_argument "Schema.make: duplicate column names") (fun () ->
      ignore (Schema.make ~rel:"x" [ ("a", Value.Tint); ("a", Value.Tint) ]));
  check_int "cardinality" 5 (Table.cardinality users);
  check_int "column_values" 5 (List.length (Table.column_values users "age"));
  (try
     ignore (Table.column_values users "nope");
     Alcotest.fail "expected Not_found"
   with Not_found -> ());
  (try
     ignore (Table.insert users [| v_int 1 |]);
     Alcotest.fail "expected arity error"
   with Invalid_argument _ -> ());
  check_int "insert grows" 6
    (Table.cardinality (Table.insert users [| v_int 6; v_str "f"; v_int 1; v_str "x" |]));
  check_int "db rows" 10 (Database.total_rows db);
  check_bool "relations sorted" true (Database.relations db = [ "orders"; "users" ]);
  Alcotest.check_raises "duplicate table"
    (Invalid_argument "Database.add_table: users already exists") (fun () ->
      ignore (Database.add_table db users))

(* ---- executor ---- *)

let test_where () =
  check_int "gt" 2 (List.length (tuples "SELECT id FROM users WHERE age > 26"));
  check_int "eq string" 3 (List.length (tuples "SELECT id FROM users WHERE city = 'berlin'"));
  check_int "null excluded from comparison" 4
    (List.length (tuples "SELECT id FROM users WHERE age >= 0"));
  check_int "is null" 1 (List.length (tuples "SELECT id FROM users WHERE age IS NULL"));
  check_int "is not null" 4 (List.length (tuples "SELECT id FROM users WHERE age IS NOT NULL"));
  check_int "between" 3
    (List.length (tuples "SELECT id FROM users WHERE age BETWEEN 25 AND 30"));
  check_int "in list" 3
    (List.length (tuples "SELECT id FROM users WHERE city IN ('berlin', 'nowhere')"));
  check_int "like" 3 (List.length (tuples "SELECT id FROM users WHERE name LIKE '%e'"));
  check_int "not" 2
    (List.length (tuples "SELECT id FROM users WHERE NOT city = 'berlin'"));
  check_int "not over null stays unknown" 2
    (List.length (tuples "SELECT id FROM users WHERE NOT age = 25"));
  check_int "or" 4
    (List.length (tuples "SELECT id FROM users WHERE age = 25 OR city = 'berlin'"));
  check_int "neq" 2 (List.length (tuples "SELECT id FROM users WHERE age <> 25"));
  check_int "const first" 2 (List.length (tuples "SELECT id FROM users WHERE 26 < age"))

let test_alias_labels () =
  let r = run "SELECT name AS who, age AS years FROM users WHERE id = 1" in
  check_bool "alias labels" true (r.Executor.columns = [ "who"; "years" ]);
  (* provenance still points at the source columns, so encryption of result
     tuples keys off the true attribute *)
  check_bool "provenance unchanged" true
    (r.Executor.provenance
     = [ Executor.Pattr ("users", "name"); Executor.Pattr ("users", "age") ]);
  let r2 = run "SELECT COUNT(*) AS population FROM users" in
  check_bool "agg alias" true (r2.Executor.columns = [ "population" ])

let test_projection () =
  check_bool "order preserved" true
    (rows_str "SELECT name, age FROM users WHERE id = 1" = [ "alice,30" ]);
  check_int "star arity" 4
    (List.length (List.hd (tuples "SELECT * FROM users WHERE id = 1")));
  let r = run "SELECT name FROM users WHERE id = 2" in
  check_bool "columns" true (r.Executor.columns = [ "name" ]);
  check_bool "provenance" true
    (r.Executor.provenance = [ Executor.Pattr ("users", "name") ]);
  check_int "distinct" 3
    (List.length (tuples "SELECT DISTINCT age FROM users WHERE age IS NOT NULL"))

let test_joins () =
  check_int "join rows" 4
    (List.length (tuples "SELECT oid FROM users JOIN orders ON users.id = orders.uid"));
  (* LEFT JOIN keeps unmatched users with a null-padded orders row *)
  check_int "left join rows" 6
    (List.length (tuples "SELECT name FROM users LEFT JOIN orders ON users.id = orders.uid"));
  check_bool "unmatched side padded with nulls" true
    (rows_str "SELECT name, oid FROM users LEFT JOIN orders ON users.id = orders.uid \
               WHERE oid IS NULL" = [ "dave,NULL"; "eve,NULL" ]);
  check_bool "left join preserves matches" true
    (rows_str "SELECT name, amount FROM users LEFT JOIN orders ON users.id = orders.uid \
               WHERE amount > 60 ORDER BY amount" = [ "bob,70"; "alice,100" ]);
  check_int "cartesian" 25 (List.length (tuples "SELECT users.id FROM users, orders"));
  check_int "join + filter" 2
    (List.length
       (tuples
          "SELECT oid FROM users JOIN orders ON users.id = orders.uid WHERE amount >= 70"))

let test_cross_type_join () =
  (* ints and floats join numerically, also through the hash-join path *)
  let fs = Schema.make ~rel:"fs" [ ("fk", Value.Tfloat); ("tag", Value.Tstring) ] in
  let ft =
    Table.of_rows fs
      [ [| Value.Vfloat 1.0; v_str "one" |]; [| Value.Vfloat 9.5; v_str "nine" |] ]
  in
  let db2 = Database.add_table db ft in
  let r =
    Executor.run db2
      (Sqlir.Parser.parse "SELECT name, tag FROM users JOIN fs ON users.id = fs.fk")
  in
  check_bool "float key matches int column" true
    (r.Executor.tuples = [ [ v_str "alice"; v_str "one" ] ])

let test_aggregates () =
  check_bool "count star" true (rows_str "SELECT COUNT(*) FROM users" = [ "5" ]);
  check_bool "count skips nulls" true (rows_str "SELECT COUNT(age) FROM users" = [ "4" ]);
  check_bool "sum" true (rows_str "SELECT SUM(amount) FROM orders" = [ "260" ]);
  check_bool "avg" true (rows_str "SELECT AVG(amount) FROM orders" = [ "52" ]);
  check_bool "min max" true
    (rows_str "SELECT MIN(age), MAX(age) FROM users" = [ "25,35" ]);
  check_bool "empty input aggregates" true
    (rows_str "SELECT COUNT(*), SUM(age) FROM users WHERE id > 100" = [ "0,NULL" ]);
  check_bool "group by" true
    (rows_str "SELECT city, COUNT(*) FROM users GROUP BY city ORDER BY city"
     = [ "berlin,3"; "paris,1"; "rome,1" ]);
  check_bool "group sums" true
    (rows_str "SELECT uid, SUM(amount) FROM orders GROUP BY uid ORDER BY uid"
     = [ "1,150"; "2,70"; "3,30"; "9,10" ]);
  check_bool "having count" true
    (rows_str "SELECT city, COUNT(*) FROM users GROUP BY city HAVING COUNT(*) > 1"
     = [ "berlin,3" ]);
  check_bool "having min" true
    (rows_str "SELECT uid FROM orders GROUP BY uid HAVING MIN(amount) >= 50 ORDER BY uid"
     = [ "1"; "2" ]);
  check_bool "min on strings" true (rows_str "SELECT MIN(name) FROM users" = [ "alice" ])

let test_order_limit () =
  check_bool "order desc" true
    (rows_str "SELECT name FROM users WHERE age IS NOT NULL ORDER BY age DESC, name"
     = [ "carol"; "alice"; "bob"; "eve" ]);
  check_bool "nulls first" true
    (rows_str "SELECT name FROM users ORDER BY age LIMIT 1" = [ "dave" ]);
  check_bool "limit" true (List.length (tuples "SELECT id FROM users ORDER BY id LIMIT 3") = 3);
  check_bool "limit larger than input" true
    (List.length (tuples "SELECT id FROM users LIMIT 99") = 5);
  check_bool "order by non-selected column" true
    (rows_str "SELECT name FROM users WHERE age IS NOT NULL ORDER BY age, id LIMIT 2"
     = [ "bob"; "eve" ])

let test_errors () =
  let expect_exec s =
    match run s with
    | exception Executor.Exec_error _ -> ()
    | _ -> Alcotest.failf "expected Exec_error for %s" s
  in
  expect_exec "SELECT * FROM missing";
  expect_exec "SELECT nope FROM users";
  expect_exec "SELECT users.nope FROM users";
  expect_exec "SELECT uid FROM users JOIN orders ON users.id = orders.uid WHERE name > 5";
  expect_exec "SELECT name, COUNT(*) FROM users";
  expect_exec "SELECT * FROM users GROUP BY city";
  expect_exec "SELECT SUM(name) FROM users";
  expect_exec "SELECT id FROM users WHERE age LIKE 'y'";
  expect_exec "SELECT id FROM users, users";
  check_str "error text" "unknown relation missing"
    (Executor.error_to_string (Executor.Unknown_relation "missing"))

let test_static_checks () =
  (* errors are raised statically, before any row is touched: behavior is
     identical on empty matches, which the index prefilter relies on *)
  let expect_exec s =
    match run s with
    | exception Executor.Exec_error _ -> ()
    | _ -> Alcotest.failf "expected static error for %s" s
  in
  (* type errors even though no row can match the other conjunct *)
  expect_exec "SELECT id FROM users WHERE city = 'nowhere' AND age LIKE 'x'";
  expect_exec "SELECT id FROM users WHERE id = -1 AND name > 5";
  expect_exec "SELECT id FROM users WHERE city = 3";
  expect_exec "SELECT id FROM users WHERE age BETWEEN 1 AND 'z'";
  expect_exec "SELECT id FROM users WHERE name IN (1, 2)";
  expect_exec "SELECT SUM(name) FROM users WHERE id = -1";
  expect_exec "SELECT id FROM users WHERE missing_rel.x = 1";
  expect_exec "SELECT AVG(city) FROM users";
  expect_exec "SELECT id FROM users GROUP BY city";  (* non-grouped *)
  expect_exec "SELECT id FROM users HAVING MIN(age) > 'x'";
  (* well-typed queries with empty results still succeed *)
  check_int "empty ok" 0
    (List.length (tuples "SELECT id FROM users WHERE city = 'nowhere' AND age > 3"))

let test_ambiguity () =
  let t2 =
    Table.of_rows (Schema.make ~rel:"extra" [ ("id", Value.Tint) ]) [ [| v_int 7 |] ]
  in
  let db2 = Database.add_table db t2 in
  (match Executor.run db2 (Sqlir.Parser.parse "SELECT id FROM users, extra") with
   | exception Executor.Exec_error (Executor.Ambiguous_attribute _) -> ()
   | _ -> Alcotest.fail "expected ambiguity");
  let r =
    Executor.run db2
      (Sqlir.Parser.parse "SELECT users.id FROM users, extra WHERE extra.id = 7")
  in
  check_int "qualified resolves" 5 (List.length r.Executor.tuples)

let test_result_tuple_set () =
  let r = run "SELECT city FROM users" in
  check_int "raw tuples" 5 (List.length r.Executor.tuples);
  check_int "deduplicated set" 3 (List.length (Executor.result_tuple_set r))

(* ---- csv i/o ---- *)

let test_csvio () =
  let csv = Minidb.Csvio.table_to_string users in
  (match Minidb.Csvio.table_of_string ~rel:"users" csv with
   | Ok t -> check_bool "roundtrip" true (Table.rows t = Table.rows users)
   | Error e -> Alcotest.failf "csv roundtrip: %s" e);
  (* tricky content: quotes, commas, newlines, the string "NULL", empties *)
  let tricky_schema = Schema.make ~rel:"tricky" [ ("s", Value.Tstring); ("n", Value.Tint) ] in
  let tricky =
    Table.of_rows tricky_schema
      [ [| v_str "a,b"; v_int 1 |];
        [| v_str "he said \"hi\""; Value.Vnull |];
        [| v_str "line\nbreak"; v_int (-3) |];
        [| v_str "NULL"; v_int 0 |];
        [| v_str ""; v_int 7 |] ]
  in
  (match Minidb.Csvio.table_of_string ~rel:"tricky" (Minidb.Csvio.table_to_string tricky) with
   | Ok t -> check_bool "tricky roundtrip" true (Table.rows t = Table.rows tricky)
   | Error e -> Alcotest.failf "tricky: %s" e);
  (* string "NULL" stays a string, bare NULL is null *)
  (match Minidb.Csvio.table_of_string ~rel:"x" "a:string\n\"NULL\"\nNULL\n" with
   | Ok t ->
     check_bool "quoted NULL is string" true
       (Table.rows t = [ [| v_str "NULL" |]; [| Value.Vnull |] ])
   | Error e -> Alcotest.failf "null distinction: %s" e);
  (* errors *)
  check_bool "bad header" true
    (Result.is_error (Minidb.Csvio.table_of_string ~rel:"x" "a\n1\n"));
  check_bool "bad int" true
    (Result.is_error (Minidb.Csvio.table_of_string ~rel:"x" "a:int\nnope\n"));
  check_bool "arity mismatch" true
    (Result.is_error (Minidb.Csvio.table_of_string ~rel:"x" "a:int,b:int\n1\n"))

(* fault-tolerant parse: malformed rows become [Csv_malformed {line; _}]
   while every well-formed row still loads; physical line numbers count
   newlines inside quoted fields *)
let test_csvio_partial () =
  let input =
    String.concat "\n"
      [ "a:int,b:string";      (* line 1: header *)
        "1,one";               (* line 2: good *)
        "oops,two";            (* line 3: not an int *)
        "4,\"multi";           (* lines 4-5: good, quoted newline *)
        "line\"";
        "6,ab\"cd";            (* line 6: quote in unquoted field *)
        "7,seven";             (* line 7: good *)
        "8,\"unterminated" ]   (* line 8: EOF inside quotes *)
  in
  (match Minidb.Csvio.table_of_string_partial ~rel:"t" input with
   | Error e -> Alcotest.failf "partial parse: %s" (Fault.Error.to_string e)
   | Ok (t, errs) ->
     check_bool "good rows survive" true
       (Table.rows t
        = [ [| v_int 1; v_str "one" |];
            [| v_int 4; v_str "multi\nline" |];
            [| v_int 7; v_str "seven" |] ]);
     (match errs with
      | [ Fault.Error.Csv_malformed { line = 3; _ };
          Fault.Error.Csv_malformed { line = 6; _ };
          Fault.Error.Csv_malformed { line = 8; reason } ] ->
        check_bool "truncation diagnosed" true
          (reason = "unterminated quoted field")
      | _ ->
        Alcotest.failf "wrong error report: %s"
          (String.concat "; " (List.map Fault.Error.to_string errs))));
  (* arity mismatches are per-row too *)
  (match Minidb.Csvio.table_of_string_partial ~rel:"t" "a:int,b:int\n1,2\n3\n" with
   | Ok (t, [ Fault.Error.Csv_malformed { line = 3; _ } ]) ->
     check_int "good row kept" 1 (Table.cardinality t)
   | _ -> Alcotest.fail "arity mismatch not contained");
  (* a broken header stays fatal *)
  (match Minidb.Csvio.table_of_string_partial ~rel:"t" "a\n1\n" with
   | Error (Fault.Error.Csv_malformed { line = 1; _ }) -> ()
   | _ -> Alcotest.fail "bad header must be fatal");
  (* the strict wrapper renders the first partial error *)
  (match Minidb.Csvio.table_of_string ~rel:"t" "a:int\n1\nx\n",
         Minidb.Csvio.table_of_string_partial ~rel:"t" "a:int\n1\nx\n" with
   | Error msg, Ok (_, first :: _) ->
     check_str "strict = first partial error"
       (Fault.Error.to_string first) msg
   | _ -> Alcotest.fail "strict must reject");
  (* unreadable files surface as a typed Io_failure *)
  match Minidb.Csvio.read_table_partial ~rel:"t" "/nonexistent/kitdpe.csv" with
  | Error (Fault.Error.Io_failure _) -> ()
  | _ -> Alcotest.fail "missing file must be Io_failure"

let test_csvio_dir () =
  (* database directory roundtrip *)
  let dir = Filename.temp_file "kitdpe" "" in
  Sys.remove dir;
  (match Minidb.Csvio.write_database ~dir db with
   | Ok files ->
     check_int "two files" 2 (List.length files);
     (match Minidb.Csvio.read_database ~dir with
      | Ok db2 ->
        check_bool "db roundtrip" true
          (List.for_all
             (fun rel ->
               Table.rows (Database.find_exn db2 rel)
               = Table.rows (Database.find_exn db rel))
             (Database.relations db))
      | Error e -> Alcotest.failf "read_database: %s" e)
   | Error e -> Alcotest.failf "write_database: %s" e)

let csv_properties =
  [ QCheck.Test.make ~name:"csv value roundtrip" ~count:300
      (QCheck.list_of_size (QCheck.Gen.int_range 0 10) Testkit.arbitrary_value)
      (fun values ->
        let schema =
          Schema.make ~rel:"p"
            (List.mapi (fun i _ -> (Printf.sprintf "c%d" i, Value.Tstring)) values)
        in
        (* encode as strings to sidestep per-column typing *)
        let row =
          Array.of_list
            (List.map
               (fun v ->
                 if Value.is_null v then Value.Vnull
                 else v_str (Value.to_string v))
               values)
        in
        if values = [] then true
        else begin
          let t = Table.of_rows schema [ row ] in
          match Minidb.Csvio.table_of_string ~rel:"p" (Minidb.Csvio.table_to_string t) with
          | Ok t2 -> Table.rows t2 = Table.rows t
          | Error _ -> false
        end) ]

(* both CSV readers are total: any input is [Ok] or [Error], never an
   exception — on raw bytes, and on soup of the dialect's own tokens *)
let csv_lexeme =
  QCheck.Gen.(
    frequency
      [ (4, oneofl [ ","; "\""; "\"\""; "\n"; "\r\n"; "\r"; "NULL"; "'NULL'" ]);
        (3, oneofl [ "a:int"; "b:float"; "c:string"; "d:"; ":int"; "e:blob"; "a" ]);
        (2, map string_of_int int);
        (1, map (fun n -> String.make n '9') (int_range 1 30));
        (1, oneofl [ "1.5"; "-0.0"; "1e999"; "nan"; "x y"; "" ]) ])

let csv_total =
  Testkit.never_raises (fun input ->
      ( Minidb.Csvio.table_of_string ~rel:"f" input,
        Minidb.Csvio.table_of_string_partial ~rel:"f" input ))

let csv_fuzz_properties =
  [ QCheck.Test.make ~name:"csv readers total on arbitrary bytes" ~count:1000
      QCheck.(string_gen_of_size Gen.(int_range 0 120) Gen.char)
      csv_total;
    QCheck.Test.make ~name:"csv readers total on token soup" ~count:1000
      (QCheck.make ~print:(Printf.sprintf "%S")
         QCheck.Gen.(
           map2
             (fun header body -> header ^ String.concat "" body)
             (oneofl [ ""; "a:int,b:float,c:string\n"; "\"a:int\",\"c:string\"\n" ])
             (list_size (int_range 0 40) csv_lexeme)))
      csv_total ]

(* ---- properties over generated queries ---- *)

let tiny_schema r =
  Schema.make ~rel:r
    [ ("a", Value.Tint); ("b", Value.Tint); ("c", Value.Tstring);
      ("d", Value.Tint); ("price", Value.Tint); ("qty", Value.Tint);
      ("name_", Value.Tstring); ("cat", Value.Tstring) ]

let mk r seed =
  let row i =
    [| v_int (i * seed mod 7); v_int (i + seed);
       v_str (String.make ((i mod 3) + 1) 'x'); v_int (-i); v_int (i * 10);
       v_int (i mod 5);
       (if i mod 4 = 0 then Value.Vnull else v_str "n");
       v_str (if i mod 2 = 0 then "even" else "odd") |]
  in
  Table.of_rows (tiny_schema r) (List.init 6 row)

let tiny_db =
  Database.(
    add_table
      (add_table (add_table (add_table empty (mk "r" 1)) (mk "s" 2)) (mk "t_" 3))
      (mk "j_rel" 4))

let exec_properties =
  [ QCheck.Test.make ~name:"executor is total (returns or raises Exec_error)"
      ~count:500 Testkit.arbitrary_query
      (fun q ->
        match Executor.run tiny_db q with
        | _ -> true
        | exception Executor.Exec_error _ -> true);
    QCheck.Test.make ~name:"result_tuple_set sorted and deduplicated" ~count:300
      Testkit.arbitrary_query
      (fun q ->
        match Executor.run tiny_db q with
        | exception Executor.Exec_error _ -> true
        | r ->
          let s = Executor.result_tuple_set r in
          s = List.sort_uniq (List.compare Value.compare) s);
    QCheck.Test.make ~name:"AND narrows the result" ~count:300
      (QCheck.pair Testkit.arbitrary_pred Testkit.arbitrary_pred)
      (fun (p1, p2) ->
        let base = Sqlir.Ast.simple_query in
        let q1 = { base with Sqlir.Ast.from = [ "r" ]; where = Some p1 } in
        let q12 =
          { base with Sqlir.Ast.from = [ "r" ]; where = Some (Sqlir.Ast.And (p1, p2)) }
        in
        match Executor.run tiny_db q1, Executor.run tiny_db q12 with
        | r1, r12 -> List.length r12.Executor.tuples <= List.length r1.Executor.tuples
        | exception Executor.Exec_error _ -> true) ]

let () =
  Alcotest.run "minidb"
    [ ("values",
       [ Alcotest.test_case "value semantics" `Quick test_values;
         Alcotest.test_case "schema and table" `Quick test_schema_table ]);
      ("executor",
       [ Alcotest.test_case "where" `Quick test_where;
         Alcotest.test_case "projection" `Quick test_projection;
         Alcotest.test_case "alias labels" `Quick test_alias_labels;
         Alcotest.test_case "joins" `Quick test_joins;
         Alcotest.test_case "cross-type join" `Quick test_cross_type_join;
         Alcotest.test_case "aggregates" `Quick test_aggregates;
         Alcotest.test_case "order and limit" `Quick test_order_limit;
         Alcotest.test_case "errors" `Quick test_errors;
         Alcotest.test_case "static type checking" `Quick test_static_checks;
         Alcotest.test_case "ambiguity" `Quick test_ambiguity;
         Alcotest.test_case "result tuple set" `Quick test_result_tuple_set ]);
      ("csv",
       Alcotest.test_case "csv io" `Quick test_csvio
       :: Alcotest.test_case "partial parse" `Quick test_csvio_partial
       :: Alcotest.test_case "directory roundtrip" `Quick test_csvio_dir
       :: List.map (fun t -> QCheck_alcotest.to_alcotest t)
            (csv_properties @ csv_fuzz_properties));
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest t) exec_properties) ]

(* Tests for the observability subsystem (PR 2): metric correctness,
   per-domain shard merging under a real pool, disabled-mode no-ops,
   KITDPE_DOMAINS-invariance of workload-semantic metrics, OPE cache
   counters end-to-end, and well-formedness of the trace exporter. *)

(* run [f] with telemetry on and a clean slate, restoring the previous
   enabled state afterwards (tests share one process) *)
let with_obs f =
  let was = Obs.is_enabled () in
  Obs.set_enabled true;
  Obs.Registry.reset ();
  Obs.Span.clear ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) f

let with_obs_off f =
  let was = Obs.is_enabled () in
  Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) f

let with_pool ?domains f =
  let p = Parallel.Pool.create ?domains () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown p) (fun () -> f p)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---- counters and gauges ---- *)

let test_counter () =
  with_obs (fun () ->
      let c = Obs.Metric.counter () in
      Alcotest.(check int) "fresh" 0 (Obs.Metric.value c);
      Obs.Metric.incr c;
      Obs.Metric.incr c;
      Obs.Metric.add c 40;
      Alcotest.(check int) "2 incr + add 40" 42 (Obs.Metric.value c);
      Obs.Metric.reset_counter c;
      Alcotest.(check int) "reset" 0 (Obs.Metric.value c))

let test_gauge_survives_disable () =
  (* gauge writes are deliberately ungated: configuration recorded while
     telemetry is off must be visible after it is switched on *)
  with_obs_off (fun () ->
      let g = Obs.Metric.gauge () in
      Obs.Metric.set_gauge g 7;
      Obs.set_enabled true;
      Alcotest.(check int) "set while disabled" 7 (Obs.Metric.gauge_value g))

(* ---- disabled mode is a no-op ---- *)

let test_disabled_noop () =
  with_obs_off (fun () ->
      let c = Obs.Metric.counter () in
      Obs.Metric.incr c;
      Obs.Metric.add c 100;
      Alcotest.(check int) "counter untouched" 0 (Obs.Metric.value c);
      Alcotest.(check int) "time_start sentinel" 0 (Obs.time_start ());
      Obs.Span.clear ();
      let r = Obs.Span.with_span "noop" (fun () -> 17) in
      Alcotest.(check int) "with_span passthrough" 17 r;
      Alcotest.(check int) "no events" 0 (List.length (Obs.Span.events ()));
      let sk = Obs.Sketch.create () in
      Obs.Sketch.observe sk 999;
      Obs.observe_latency sk 999;
      Alcotest.(check int) "sketch untouched" 0 (Obs.Sketch.count sk);
      Alcotest.(check int) "sketch sum untouched" 0 (Obs.Sketch.sum sk);
      Obs.Window.reset ();
      Obs.Window.tick ();
      Alcotest.(check int) "window tick no-op" 0 (Obs.Window.epoch_count ()))

(* ---- telemetry off allocates nothing ---- *)

(* the property every instrumented hot path relies on: with telemetry
   off, each instrumentation call is one atomic load and no allocation *)
let test_disabled_allocates_nothing () =
  with_obs_off (fun () ->
      let c = Obs.Metric.counter () and sk = Obs.Sketch.create () in
      let n = 10_000 in
      let before = Gc.minor_words () in
      for i = 1 to n do
        Obs.Metric.incr c;
        Obs.Metric.add c i;
        Obs.Sketch.observe sk i;
        let t0 = Obs.time_start () in
        Obs.observe_latency sk t0
      done;
      let words = Gc.minor_words () -. before in
      Alcotest.(check (float 0.0)) "no minor words allocated" 0.0 words;
      Alcotest.(check int) "sketch untouched" 0 (Obs.Sketch.count sk))

(* ---- shard merge under a real multi-domain pool ---- *)

let test_shard_merge () =
  with_obs (fun () ->
      let c = Obs.Registry.counter "test.obs.shard_merge" in
      let n = 10_000 in
      with_pool ~domains:4 (fun p ->
          Parallel.Pool.for_range p n (fun _ -> Obs.Metric.incr c));
      Alcotest.(check int) "counter merged exactly" n (Obs.Metric.value c))

(* ---- workload-semantic metrics are pool-size invariant ---- *)

(* The token measure's classes, grouped apart from [Distance.Features]:
   queries with the same set of fused tokens.  Returns the class count
   and the number of classes with two or more members. *)
let token_classes log =
  let sizes = Hashtbl.create 16 in
  List.iter
    (fun q ->
      let key =
        List.sort_uniq String.compare
          (Distance.D_token.fuse
             (Sqlir.Lexer.tokenize (Sqlir.Printer.to_string q)))
      in
      Hashtbl.replace sizes key
        (1 + Option.value ~default:0 (Hashtbl.find_opt sizes key)))
    log;
  (Hashtbl.length sizes, Hashtbl.fold (fun _ c m -> if c > 1 then m + 1 else m) sizes 0)

let test_domain_invariance () =
  let log =
    Workload.Gen_query.skyserver_log
      { Workload.Gen_query.n = 80; templates = 4; seed = "obs-invariance";
        caps = Workload.Gen_query.caps_for_measure Distance.Measure.Token }
  in
  let evals_with domains =
    with_obs (fun () ->
        with_pool ~domains (fun p ->
            ignore
              (Distance.Measure.matrix ~pool:p Distance.Measure.default_ctx
                 Distance.Measure.Token log));
        match Obs.Registry.find "kitdpe.distance.measure.evals" with
        | Some (Obs.Registry.Vcounter n) -> n
        | _ -> Alcotest.fail "evals counter missing")
  in
  let d, m = token_classes log in
  Alcotest.(check bool) "the log repeats a class" true (m > 0);
  let e1 = evals_with 1 and e2 = evals_with 2 and e4 = evals_with 4 in
  Alcotest.(check int) "d(d-1)/2 + m evals, 1 domain" ((d * (d - 1) / 2) + m) e1;
  Alcotest.(check int) "same under 2 domains" e1 e2;
  Alcotest.(check int) "same under 4 domains" e1 e4

(* ---- OPE cache counters, end to end ---- *)

let test_ope_cache_counters () =
  with_obs (fun () ->
      let ope =
        Crypto.Ope.create ~master:"test-obs" ~purpose:"cache"
          { Crypto.Ope.plain_bits = 24; cipher_bits = 48 }
      in
      let vals = Array.init 50 (fun i -> i * 31) in
      Array.iter (fun v -> ignore (Crypto.Ope.encrypt ope v)) vals;
      Array.iter (fun v -> ignore (Crypto.Ope.encrypt ope v)) vals;
      let s = Crypto.Ope.cache_stats ope in
      Alcotest.(check int) "one miss per distinct value" 50
        s.Crypto.Ope.misses;
      Alcotest.(check bool) "warm pass hits" true (s.Crypto.Ope.hits >= 50);
      Alcotest.(check int) "cache holds the distinct values" 50
        s.Crypto.Ope.size;
      Alcotest.(check int) "no evictions" 0 s.Crypto.Ope.evictions;
      (match Obs.Registry.find "kitdpe.crypto.ope.cache_hits" with
       | Some (Obs.Registry.Vcounter n) ->
         Alcotest.(check bool) "registry hits > 0" true (n > 0)
       | _ -> Alcotest.fail "registry hit counter missing"))

(* the two timings that used to exist only as log2 histograms are
   sketches now *)
let test_build_and_prewarm_sketches () =
  let count name =
    match Obs.Registry.find name with
    | Some (Obs.Registry.Vsketch { count; _ }) -> count
    | _ -> Alcotest.fail (name ^ " is not a registered sketch")
  in
  with_obs (fun () ->
      let log =
        Workload.Gen_query.skyserver_log
          { Workload.Gen_query.n = 30; templates = 4; seed = "obs-index";
            caps = Workload.Gen_query.caps_for_measure Distance.Measure.Token }
      in
      let feats = Distance.Features.build (Array.of_list log) in
      ignore
        (Index.Vp_tree.build ~seed:"obs"
           (Index.Space.flat Distance.Measure.Token feats));
      Alcotest.(check bool) "kitdpe.index.build observed" true
        (count "kitdpe.index.build" > 0);
      let sum_q =
        match
          Sqlir.Parser.parse_result
            "SELECT class, SUM(redshift) AS total FROM photoobj GROUP BY class"
        with
        | Ok q -> q
        | Error e -> Alcotest.fail e
      in
      let scheme =
        Dpe.Selector.select Distance.Measure.Result
          (Dpe.Log_profile.of_log [ sum_q ])
      in
      let enc =
        Dpe.Encryptor.create (Crypto.Keyring.of_passphrase "test-obs") scheme
      in
      let db = Workload.Gen_db.skyserver ~seed:"obs-prewarm" ~rows:8 in
      let filled, errs = Dpe.Db_encryptor.prewarm_hom_noise_r enc db in
      Alcotest.(check bool) "prewarm filled HOM cells" true
        (filled > 0 && errs = []);
      Alcotest.(check bool) "kitdpe.dpe.db_encryptor.prewarm observed" true
        (count "kitdpe.dpe.db_encryptor.prewarm" > 0))

(* ---- JSON reader ---- *)

let nested depth = String.make depth '[' ^ String.make depth ']'

let test_json_depth_bound () =
  let d = Obs.Json.max_depth in
  (match Obs.Json.parse (nested d) with
   | Ok _ -> ()
   | Error e -> Alcotest.fail ("depth max_depth rejected: " ^ e));
  (match Obs.Json.parse (nested (d + 1)) with
   | Error e ->
     Alcotest.(check bool) "names the bound" true
       (contains e (Printf.sprintf "nesting deeper than %d" d))
   | Ok _ -> Alcotest.fail "depth max_depth + 1 accepted");
  match Obs.Json.parse ("{\"a\":" ^ nested d ^ "}") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an object around max_depth arrays was accepted"

(* [to_int] answers only for integral numbers inside the int range: a
   fraction is not truncated and an out-of-range value does not wrap *)
let test_json_to_int_exact () =
  let to_int s =
    match Obs.Json.parse s with
    | Ok j -> Obs.Json.to_int j
    | Error e -> Alcotest.fail ("parse: " ^ e)
  in
  let check what want s =
    Alcotest.(check (option int)) (what ^ " " ^ s) want (to_int s)
  in
  check "integral" (Some 42) "42";
  check "negative" (Some (-7)) "-7";
  check "exponent form" (Some 1000) "1e3";
  check "negative zero" (Some 0) "-0";
  check "min_int" (Some min_int) "-4611686018427387904";
  check "fraction" None "2.7";
  check "half" None "1.5";
  check "huge" None "1e300";
  check "2^62" None "4611686018427387904";
  check "below min_int" None "-4611686018427387905000";
  check "string" None "\"3\""

(* the string reader's errors: a string without a backslash takes the
   one-copy path, one with a backslash the byte-wise decoder, and both
   report as before and leave the cursor after the closing quote *)
let test_json_string_errors () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check (result reject string)) s (Error want)
        (Result.map (fun _ -> ()) (Obs.Json.parse s)))
    [ ("\"abc", "unterminated string");
      ("\"a\\nbc", "unterminated string");
      ("\"abc\\", "unterminated escape");
      ("\"a\\qb\"", "bad escape '\\q'");
      ("\"a\\u12", "truncated \\u escape");
      ("\"a\\u12zz\"", "bad \\u escape 12zz");
      ("[\"ab\" x]", "expected ',' or ']' at offset 6");
      ("[\"a\\nb\" x]", "expected ',' or ']' at offset 8");
      ("{\"ab\" 1}", "expected ':' at offset 6, found '1'");
      ("\"ab\"x", "trailing garbage at offset 4");
      ("\"\\u00e9\\u20ac\"x", "trailing garbage at offset 14") ]

(* ---- JSON writer ---- *)

let test_json_number_rule () =
  let check what want f =
    Alcotest.(check string) what want (Obs.Json.to_string (Obs.Json.Num f))
  in
  check "10^15 + 1 as digits" "1000000000000001" 1_000_000_000_000_001.;
  check "2^53 - 1 as digits" "9007199254740991" 0x1.fffffffffffffp52;
  check "negative zero" "-0" (-0.);
  check "short decimal" "0.1" 0.1;
  check "1/3 to 16 digits" "0.3333333333333333" (1. /. 3.);
  check "0.1 + 0.2 to 17 digits" "0.30000000000000004" (0.1 +. 0.2);
  check "large" "1e+300" 1e300;
  check "nan" "null" Float.nan;
  check "infinity" "null" Float.neg_infinity;
  Alcotest.(check string) "escapes only quote, backslash and controls"
    "\"q\\\"b\\\\n\\nc\\u0001\\u001f\\t\\r\127\255\""
    (Obs.Json.to_string (Obs.Json.Str "q\"b\\n\nc\001\031\t\r\127\255"))

(* bit equality: [-0.] must come back as [-0.] *)
let rec json_equal a b =
  match (a, b) with
  | Obs.Json.Num x, Obs.Json.Num y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Obs.Json.Arr xs, Obs.Json.Arr ys -> List.equal json_equal xs ys
  | Obs.Json.Obj xs, Obs.Json.Obj ys ->
    List.equal (fun (k, x) (l, y) -> String.equal k l && json_equal x y) xs ys
  | _ -> a = b

let gen_json =
  let open QCheck.Gen in
  let num =
    frequency
      [ (3, map (fun f -> if Float.is_finite f then f else 0.5)
             (map Int64.float_of_bits int64));
        (2, map float_of_int (int_range (-(1 lsl 53)) (1 lsl 53)));
        (* subnormals: exponent bits zero *)
        (1, map (fun b -> Int64.float_of_bits (Int64.logand b 0x800f_ffff_ffff_ffffL))
             int64);
        (1, oneofl [ 0.; -0.; Float.min_float; -.Float.max_float; 1. /. 3. ]) ]
  in
  let str = string_size ~gen:char (int_bound 12) in
  let leaf =
    frequency
      [ (1, return Obs.Json.Null);
        (1, map (fun b -> Obs.Json.Bool b) bool);
        (4, map (fun f -> Obs.Json.Num f) num);
        (3, map (fun s -> Obs.Json.Str s) str) ]
  in
  let tree =
    sized_size (int_bound 40)
      (fix (fun self n ->
           if n = 0 then leaf
           else
             frequency
               [ (1, leaf);
                 (2, map (fun l -> Obs.Json.Arr l) (list_size (int_bound 4) (self (n / 4))));
                 (2, map (fun l -> Obs.Json.Obj l)
                       (list_size (int_bound 4) (pair str (self (n / 4))))) ]))
  in
  (* up to max_depth brackets, the deepest [parse] accepts *)
  let rec wrap d v =
    if d = 0 then v
    else wrap (d - 1) (if d mod 2 = 0 then Obs.Json.Arr [ v ] else Obs.Json.Obj [ ("k", v) ])
  in
  frequency [ (4, tree); (1, map2 wrap (int_bound Obs.Json.max_depth) leaf) ]

(* byte strings with a quote, a backslash, a control character or a
   byte >= 0x80 first, in the middle and last: the edges of every run
   the writer copies whole and the reader takes in one piece *)
let gen_edgy_string =
  let open QCheck.Gen in
  let edge =
    map (String.make 1)
      (oneof
         [ oneofl [ '"'; '\\' ]; map Char.chr (int_range 0 0x1f);
           map Char.chr (int_range 0x80 0xff) ])
  in
  let body = string_size ~gen:char (int_bound 20) in
  frequency
    [ (1, string_size ~gen:char (int_bound 40));
      (3, map3 (fun (a, b) c (l, r) -> a ^ l ^ b ^ r ^ c) (pair edge edge) edge
            (pair body body)) ]

let json_properties =
  [ QCheck.Test.make ~name:"to_string inverts parse" ~count:1000
      (QCheck.make ~print:Obs.Json.to_string gen_json)
      (fun j ->
        match Obs.Json.parse (Obs.Json.to_string j) with
        | Ok j' -> json_equal j j'
        | Error _ -> false);
    QCheck.Test.make ~name:"byte strings round-trip" ~count:2000
      (QCheck.make ~print:String.escaped gen_edgy_string)
      (fun s ->
        Obs.Json.parse (Obs.Json.to_string (Obs.Json.Str s)) = Ok (Obs.Json.Str s)) ]

(* ---- span ring buffer ---- *)

let test_span_ring_overflow () =
  with_obs (fun () ->
      Obs.Span.set_capacity 4;
      Fun.protect
        ~finally:(fun () -> Obs.Span.set_capacity 8192)
        (fun () ->
          for i = 1 to 10 do
            Obs.Span.record ~name:(Printf.sprintf "s%d" i) ~ts_ns:i
              ~dur_ns:1 ()
          done;
          let evs = Obs.Span.events () in
          Alcotest.(check int) "ring keeps the newest 4" 4 (List.length evs);
          Alcotest.(check int) "6 dropped" 6 (Obs.Span.dropped ());
          (match Obs.Registry.find "kitdpe.obs.span.dropped" with
           | Some (Obs.Registry.Vcounter n) ->
             Alcotest.(check int) "dropped counter registered" 6 n
           | _ -> Alcotest.fail "kitdpe.obs.span.dropped missing");
          Alcotest.(check (list string)) "oldest-first order"
            [ "s7"; "s8"; "s9"; "s10" ]
            (List.map (fun e -> e.Obs.Span.name) evs)))

(* ---- trace / JSON well-formedness ---- *)

(* minimal JSON validator: accepts exactly RFC-8259 structure, returns
   the number of values parsed so tests can assert non-triviality *)
let check_json label s =
  let n = String.length s in
  let pos = ref 0 in
  let values = ref 0 in
  let fail msg =
    Alcotest.fail (Printf.sprintf "%s: %s at byte %d" label msg !pos)
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = Stdlib.incr pos in
  let rec ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word =
    String.iter expect word;
    Stdlib.incr values
  in
  let string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
           advance ();
           go ()
         | Some 'u' ->
           advance ();
           for _ = 1 to 4 do
             match peek () with
             | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
             | _ -> fail "bad \\u escape"
           done;
           go ()
         | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some _ ->
        advance ();
        go ()
    in
    go ();
    Stdlib.incr values
  in
  let number () =
    let digits () =
      let saw = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          saw := true;
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if not !saw then fail "expected digit"
    in
    (match peek () with Some '-' -> advance () | _ -> ());
    digits ();
    (match peek () with
     | Some '.' ->
       advance ();
       digits ()
     | _ -> ());
    (match peek () with
     | Some ('e' | 'E') ->
       advance ();
       (match peek () with Some ('+' | '-') -> advance () | _ -> ());
       digits ()
     | _ -> ());
    Stdlib.incr values
  in
  let rec value () =
    ws ();
    (match peek () with
     | Some '{' -> obj ()
     | Some '[' -> arr ()
     | Some '"' -> string_lit ()
     | Some 't' -> literal "true"
     | Some 'f' -> literal "false"
     | Some 'n' -> literal "null"
     | Some ('-' | '0' .. '9') -> number ()
     | _ -> fail "expected a value");
    ws ()
  and obj () =
    expect '{';
    ws ();
    (match peek () with
     | Some '}' -> advance ()
     | _ ->
       let rec members () =
         ws ();
         string_lit ();
         ws ();
         expect ':';
         value ();
         match peek () with
         | Some ',' ->
           advance ();
           members ()
         | _ -> expect '}'
       in
       members ());
    Stdlib.incr values
  and arr () =
    expect '[';
    ws ();
    (match peek () with
     | Some ']' -> advance ()
     | _ ->
       let rec elements () =
         value ();
         match peek () with
         | Some ',' ->
           advance ();
           elements ()
         | _ -> expect ']'
       in
       elements ());
    Stdlib.incr values
  in
  value ();
  if !pos <> n then fail "trailing garbage";
  !values

let test_trace_export () =
  with_obs (fun () ->
      ignore
        (Obs.Span.with_span ~cat:"test" "alpha \"quoted\" \\ back" (fun () ->
             Obs.Span.record ~cat:"test" ~name:"beta\nnewline" ~ts_ns:10
               ~dur_ns:5 ();
             1));
      let c = Obs.Registry.counter "test.obs.trace_counter" in
      Obs.Metric.incr c;
      Obs.Sketch.observe (Obs.Registry.sketch "test.obs.trace_sk") 1000;
      let json = Obs.Trace.to_string () in
      let nvals = check_json "trace" json in
      Alcotest.(check bool) "trace is non-trivial" true (nvals > 10);
      let contains needle =
        let nl = String.length needle and jl = String.length json in
        let rec go i =
          i + nl <= jl
          && (String.sub json i nl = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "has traceEvents" true (contains "\"traceEvents\"");
      Alcotest.(check bool) "has complete events" true (contains "\"ph\":\"X\"");
      Alcotest.(check bool) "embeds the registry" true
        (contains "test.obs.trace_counter");
      Alcotest.(check bool) "escapes newlines" true (contains "beta\\nnewline"))

let test_registry_to_json () =
  with_obs (fun () ->
      Obs.Metric.incr (Obs.Registry.counter "test.obs.dump_c");
      Obs.Sketch.observe (Obs.Registry.sketch "test.obs.dump_sk") 42;
      Obs.Metric.set_gauge (Obs.Registry.gauge "test.obs.dump_g") 3;
      let json = Obs.Json.to_string (Obs.Registry.to_json ()) in
      ignore (check_json "registry dump" json);
      Alcotest.check_raises "kind mismatch rejected"
        (Invalid_argument
           "Obs.Registry: test.obs.dump_c already registered with another kind")
        (fun () -> ignore (Obs.Registry.sketch "test.obs.dump_c")))

(* ---- quantile sketches (PR 7) ---- *)

(* exact reference quantile with the same ceil-rank convention the
   sketch uses: rank = clamp(ceil(q*n), 1, n), 1-indexed *)
let exact_quantile sorted q =
  let n = Array.length sorted in
  let rank = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) in
  sorted.(rank - 1)

let test_sketch_accuracy () =
  with_obs (fun () ->
      let check_dist label gen n =
        let sk = Obs.Sketch.create () in
        let vals = Array.init n (fun _ -> gen ()) in
        Array.iter (fun v -> Obs.Sketch.observe sk v) vals;
        let sorted = Array.copy vals in
        Array.sort compare sorted;
        Alcotest.(check int) (label ^ ": count") n (Obs.Sketch.count sk);
        Alcotest.(check int)
          (label ^ ": sum")
          (Array.fold_left ( + ) 0 vals)
          (Obs.Sketch.sum sk);
        List.iter
          (fun q ->
            match Obs.Sketch.quantile sk q with
            | None -> Alcotest.fail (label ^ ": quantile returned None")
            | Some est ->
              let ex = float_of_int (exact_quantile sorted q) in
              let err = Float.abs (est -. ex) /. Float.max ex 1.0 in
              (* DDSketch guarantees alpha = 1% relative error per
                 observation; 2.5% leaves headroom for the rank-vs-value
                 convention at bucket edges *)
              Alcotest.(check bool)
                (Printf.sprintf "%s: q=%.2f rel err %.4f within bound" label
                   q err)
                true (err <= 0.025))
          [ 0.5; 0.9; 0.95; 0.99 ]
      in
      let rng = Crypto.Drbg.create ~seed:"obs-sketch-uniform" in
      check_dist "uniform"
        (fun () -> 1 + Crypto.Drbg.uniform_int rng 1_000_000)
        4000;
      let rng2 = Crypto.Drbg.create ~seed:"obs-sketch-tail" in
      (* log-uniform over ~6 decades: exercises the geometric buckets far
         from each other, where a linear histogram would collapse *)
      check_dist "heavy-tail"
        (fun () ->
          1 + int_of_float (Float.exp (Crypto.Drbg.uniform_float rng2 *. 14.0)))
        4000)

let test_sketch_shard_merge () =
  with_obs (fun () ->
      let sk = Obs.Registry.sketch "test.obs.sk_merge" in
      let n = 8_000 in
      with_pool ~domains:4 (fun p ->
          Parallel.Pool.for_range p n (fun i ->
              Obs.Sketch.observe sk (1 + (i land 1023))));
      let expected_sum = ref 0 in
      for i = 0 to n - 1 do
        expected_sum := !expected_sum + 1 + (i land 1023)
      done;
      Alcotest.(check int) "count merged exactly" n (Obs.Sketch.count sk);
      Alcotest.(check int) "sum merged exactly" !expected_sum
        (Obs.Sketch.sum sk);
      Alcotest.(check int) "max merged" 1024 (Obs.Sketch.max_value sk);
      match Obs.Sketch.quantile sk 1.0 with
      | Some v ->
        Alcotest.(check bool) "top quantile within alpha of max" true
          (Float.abs (v -. 1024.0) /. 1024.0 <= Obs.Sketch.alpha +. 0.001)
      | None -> Alcotest.fail "merged sketch has no quantile")

let test_sketch_exemplar () =
  with_obs (fun () ->
      let sk = Obs.Sketch.create () in
      Obs.Sketch.observe sk ~trace_id:7 ~span_id:8 500;
      Obs.Sketch.observe sk ~trace_id:9 ~span_id:10 9_000;
      Obs.Sketch.observe sk ~trace_id:11 ~span_id:12 800;
      Alcotest.(check int) "max tracked" 9_000 (Obs.Sketch.max_value sk);
      match Obs.Sketch.exemplar sk with
      | Some e ->
        Alcotest.(check int) "exemplar value" 9_000 e.Obs.Sketch.ex_value;
        Alcotest.(check int) "exemplar trace" 9 e.Obs.Sketch.ex_trace;
        Alcotest.(check int) "exemplar span" 10 e.Obs.Sketch.ex_span
      | None -> Alcotest.fail "no exemplar on the largest observation")

(* ---- rolling windows ---- *)

let test_window () =
  with_obs (fun () ->
      Obs.Window.configure ~epochs:2 ~epoch_ns:1_000_000_000 ();
      Fun.protect
        ~finally:(fun () -> Obs.Window.configure ())
        (fun () ->
          let c = Obs.Registry.counter "test.obs.win_c" in
          let sk = Obs.Registry.sketch "test.obs.win_sk" in
          (* one old outlier before the baseline epoch *)
          Obs.Sketch.observe sk 1_000_000;
          Obs.Window.force ~now:1_000_000_000 ();
          Obs.Metric.add c 60;
          for _ = 1 to 20 do
            Obs.Sketch.observe sk 1_000
          done;
          (match Obs.Window.rate ~now:3_000_000_000 "test.obs.win_c" with
           | Some r -> Alcotest.(check (float 0.001)) "60 in 2s = 30/s" 30.0 r
           | None -> Alcotest.fail "counter has no windowed rate");
          (match Obs.Window.quantile ~now:2_000_000_000 "test.obs.win_sk" 0.99 with
           | Some v ->
             Alcotest.(check bool) "recent p99 excludes the old outlier" true
               (v > 900.0 && v < 2_000.0)
           | None -> Alcotest.fail "sketch has no windowed quantile");
          Obs.Metric.set_gauge (Obs.Registry.gauge "test.obs.win_g") 5;
          Alcotest.(check bool) "gauges are not rated" true
            (Obs.Window.rate ~now:2_000_000_000 "test.obs.win_g" = None);
          (* ring expiry: only [epochs] snapshots retained *)
          Obs.Window.force ~now:3_000_000_000 ();
          Obs.Window.force ~now:4_000_000_000 ();
          Obs.Window.force ~now:5_000_000_000 ();
          Alcotest.(check int) "ring bounded at capacity" 2
            (Obs.Window.epoch_count ());
          (* tick is debounced to one rotation per epoch *)
          Obs.Window.reset ();
          Obs.Window.tick ~now:6_000_000_000 ();
          Obs.Window.tick ~now:6_100_000_000 ();
          Alcotest.(check int) "tick within an epoch is a no-op" 1
            (Obs.Window.epoch_count ());
          Obs.Window.tick ~now:7_100_000_000 ();
          Alcotest.(check int) "tick after an epoch rotates" 2
            (Obs.Window.epoch_count ())))

(* ---- OpenMetrics exposition ---- *)

(* promtool-style format check: every line is a '# TYPE <name> <kind>'
   comment or a '<name>[{labels}] <value>' sample whose family was
   declared, names match the OpenMetrics charset, and the exposition
   ends with '# EOF' *)
let check_openmetrics text =
  let fail fmt = Printf.ksprintf (fun s -> Alcotest.fail s) fmt in
  let is_name_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = ':'
  in
  let valid_name s =
    s <> ""
    && (not (s.[0] >= '0' && s.[0] <= '9'))
    && String.for_all is_name_char s
  in
  let strip_suffix s =
    List.fold_left
      (fun acc suf ->
        match acc with
        | Some _ -> acc
        | None ->
          let sl = String.length s and fl = String.length suf in
          if sl > fl && String.sub s (sl - fl) fl = suf then
            Some (String.sub s 0 (sl - fl))
          else None)
      None
      [ "_total"; "_sum"; "_count" ]
    |> Option.value ~default:s
  in
  let declared = Hashtbl.create 32 in
  let lines = String.split_on_char '\n' text in
  let rec go seen_eof = function
    | [] -> if not seen_eof then fail "missing # EOF terminator"
    | "" :: rest -> go seen_eof rest
    | line :: rest ->
      if seen_eof then fail "content after # EOF: %s" line;
      if line = "# EOF" then go true rest
      else if String.length line > 0 && line.[0] = '#' then begin
        (match String.split_on_char ' ' line with
         | [ "#"; "TYPE"; name; kind ] ->
           if not (valid_name name) then fail "bad family name %s" name;
           if not (List.mem kind [ "counter"; "gauge"; "summary" ])
           then fail "bad kind %s" kind;
           Hashtbl.replace declared name kind
         | "#" :: "HELP" :: _ -> ()
         | _ -> fail "bad comment line: %s" line);
        go seen_eof rest
      end
      else begin
        let metric, value =
          match String.index_opt line '{' with
          | Some i ->
            let close =
              match String.rindex_opt line '}' with
              | Some c when c > i -> c
              | _ -> fail "unbalanced labels: %s" line
            in
            ( String.sub line 0 i,
              String.trim
                (String.sub line (close + 1) (String.length line - close - 1))
            )
          | None ->
            (match String.index_opt line ' ' with
             | Some i ->
               ( String.sub line 0 i,
                 String.trim
                   (String.sub line (i + 1) (String.length line - i - 1)) )
             | None -> fail "sample without value: %s" line)
        in
        if not (valid_name metric) then fail "bad metric name %s" metric;
        if not (Hashtbl.mem declared (strip_suffix metric)) then
          fail "sample %s has no # TYPE declaration" metric;
        if float_of_string_opt value = None then
          fail "bad sample value: %s" value;
        go seen_eof rest
      end
  in
  go false lines

let test_openmetrics_format () =
  with_obs (fun () ->
      Obs.Metric.incr (Obs.Registry.counter "test.obs.om_c");
      Obs.Sketch.observe (Obs.Registry.sketch "test.obs.om_sk") 500;
      Obs.Metric.set_gauge (Obs.Registry.gauge "test.obs.om_g") 2;
      let text = Obs.Export.openmetrics () in
      check_openmetrics text;
      Alcotest.(check bool) "counter rendered as _total" true
        (contains text "test_obs_om_c_total 1");
      Alcotest.(check bool) "no log2 le= buckets" false
        (contains text "{le=" || contains text "_bucket");
      Alcotest.(check bool) "sketch rendered as summary quantiles" true
        (contains text "test_obs_om_sk{quantile=\"0.99\"}");
      Alcotest.(check bool) "runtime gauges refreshed" true
        (contains text "kitdpe_runtime_minor_collections"))

(* ---- versioned snapshot + diff ---- *)

let test_snapshot_and_diff () =
  with_obs (fun () ->
      let c = Obs.Registry.counter "test.obs.snap_c" in
      Obs.Metric.add c 5;
      let old = Obs.Json.to_string (Obs.Export.snapshot ()) in
      ignore (check_json "snapshot" old);
      Alcotest.(check bool) "schema name" true
        (contains old "\"schema\":\"kitdpe.metrics\"");
      Alcotest.(check bool) "schema version" true
        (contains old "\"schema_version\":2");
      Alcotest.(check bool) "no histogram type" false
        (contains old "\"histogram\"");
      Alcotest.(check bool) "window section" true (contains old "\"window\"");
      Alcotest.(check bool) "span section" true (contains old "\"spans\"");
      Obs.Metric.add c 3;
      (match Obs.Export.diff ~old_json:old with
       | Ok table ->
         Alcotest.(check bool) "diff lists the changed counter" true
           (contains table "test.obs.snap_c");
         Alcotest.(check bool) "diff shows the delta" true
           (contains table "+3")
       | Error e -> Alcotest.fail ("diff rejected its own snapshot: " ^ e));
      (* a v1 snapshot still carries the log2 histograms *)
      let v1 =
        {|{"schema":"kitdpe.metrics","schema_version":1,"metrics":{|}
        ^ {|"kitdpe.crypto.det.encrypt_ns":{"type":"histogram","count":3,|}
        ^ {|"sum_ns":900,"buckets":[[9,3]]}}}|}
      in
      (match Obs.Export.diff ~old_json:v1 with
       | Ok table ->
         Alcotest.(check bool) "version note" true
           (contains table "old snapshot has schema_version 1 (current 2)");
         Alcotest.(check bool) "v1 histogram listed as gone" true
           (List.exists
              (fun l ->
                contains l "kitdpe.crypto.det.encrypt_ns" && contains l "gone")
              (String.split_on_char '\n' table))
       | Error e -> Alcotest.fail ("diff rejected a v1 snapshot: " ^ e));
      match Obs.Export.diff ~old_json:"{ not json" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "diff accepted garbage")

(* ---- cross-lane span parenting is pool-size invariant ---- *)

(* The substrate spans (cat "parallel": pool.task / pool.batch)
   legitimately vary with the pool size; the *workload* causality — each
   user span's nearest non-parallel ancestor and its trace membership —
   must not.  Compare that projection across 1, 2 and 4 domains. *)
let test_parenting_invariance () =
  let edges_with domains =
    with_obs (fun () ->
        with_pool ~domains (fun p ->
            Obs.Span.with_span ~cat:"test" "req" (fun () ->
                Parallel.Pool.for_range p 48 (fun i ->
                    Obs.Span.with_span ~cat:"test"
                      (Printf.sprintf "work%02d" i)
                      (fun () -> ()))));
        let evs = Obs.Span.events () in
        let by_span = Hashtbl.create 128 in
        List.iter (fun e -> Hashtbl.replace by_span e.Obs.Span.span_id e) evs;
        let rec anchor pid =
          if pid = 0 then "root"
          else
            match Hashtbl.find_opt by_span pid with
            | None -> "missing-parent"
            | Some e ->
              if String.equal e.Obs.Span.cat "parallel" then
                anchor e.Obs.Span.parent_id
              else e.Obs.Span.name
        in
        let req =
          match
            List.find_opt (fun e -> String.equal e.Obs.Span.name "req") evs
          with
          | Some e -> e
          | None -> Alcotest.fail "req span missing"
        in
        List.filter_map
          (fun e ->
            if String.equal e.Obs.Span.cat "parallel" then None
            else
              Some
                ( e.Obs.Span.name,
                  anchor e.Obs.Span.parent_id,
                  e.Obs.Span.trace_id = req.Obs.Span.trace_id ))
          evs
        |> List.sort compare)
  in
  let e1 = edges_with 1 in
  let e2 = edges_with 2 in
  let e4 = edges_with 4 in
  Alcotest.(check int) "req + 48 work spans" 49 (List.length e1);
  Alcotest.(check bool) "edges equal under 1 vs 2 domains" true (e1 = e2);
  Alcotest.(check bool) "edges equal under 1 vs 4 domains" true (e1 = e4);
  List.iter
    (fun (name, anchor, same_trace) ->
      if not (String.equal name "req") then begin
        Alcotest.(check string) (name ^ " anchored at req") "req" anchor;
        Alcotest.(check bool) (name ^ " in req's trace") true same_trace
      end)
    e1

(* ---- span contexts are per sys-thread ---- *)

let find_span name evs =
  match List.find_opt (fun e -> String.equal e.Obs.Span.name name) evs with
  | Some e -> e
  | None -> Alcotest.failf "no %s span" name

(* Two threads of one domain interleave their sections as open a, open
   b, close a, close b.  Each section is a root of its own, parents its
   own child, and leaves its thread at the root context: the server's
   health and stats threads run beside a compute request like this. *)
let test_span_thread_isolation () =
  with_obs (fun () ->
      let stage = ref 0 and m = Mutex.create () and c = Condition.create () in
      let advance n =
        Mutex.lock m;
        stage := n;
        Condition.broadcast c;
        Mutex.unlock m
      in
      let await n =
        Mutex.lock m;
        while !stage < n do
          Condition.wait c m
        done;
        Mutex.unlock m
      in
      let after_a = ref None and after_b = ref None in
      let section name ~opened ~close_after after =
        Obs.Span.with_span ~cat:"test" name (fun () ->
            advance opened;
            await close_after;
            Obs.Span.with_span ~cat:"test" (name ^ ".child") ignore);
        after := Some (Obs.Span.current ())
      in
      let a =
        Thread.create
          (fun () -> section "a" ~opened:1 ~close_after:2 after_a; advance 3)
          ()
      in
      let b =
        Thread.create
          (fun () -> await 1; section "b" ~opened:2 ~close_after:3 after_b)
          ()
      in
      Thread.join a;
      Thread.join b;
      let evs = Obs.Span.events () in
      let span name = find_span name evs in
      Alcotest.(check int) "b is a root" 0 (span "b").parent_id;
      Alcotest.(check int) "a.child under a" (span "a").span_id
        (span "a.child").parent_id;
      Alcotest.(check int) "b.child under b" (span "b").span_id
        (span "b.child").parent_id;
      List.iter
        (fun (who, after) ->
          Alcotest.(check bool) (who ^ " back at the root context") true
            (!after = Some Obs.Span.root_context))
        [ ("a", after_a); ("b", after_b) ])

(* a section that raises still records its span, and spans recorded on
   the way out parent on the enclosing section: complete link stopped by
   an expired deadline keeps its [hier.merges] span *)
let test_raising_section_recorded () =
  let m = Mining.Dist_matrix.of_fun 12 (fun i j -> float_of_int (abs (i - j))) in
  with_obs (fun () ->
      let raised =
        Obs.Span.with_span ~cat:"test" "req" (fun () ->
            match
              Parallel.Pool.with_deadline ~deadline_ns:(Obs.now_ns () - 1)
                (fun () -> Mining.Hier.cut_k 3 m)
            with
            | _ -> false
            | exception Fault.Error.E (Fault.Error.Deadline_exceeded _) -> true)
      in
      Alcotest.(check bool) "cut_k raised Deadline_exceeded" true raised;
      let evs = Obs.Span.events () in
      Alcotest.(check int) "hier.merges under req"
        (find_span "req" evs).span_id
        (find_span "hier.merges(n=12)" evs).parent_id)

let () =
  Alcotest.run "obs"
    [ ("metrics",
       [ Alcotest.test_case "counter" `Quick test_counter;
         Alcotest.test_case "gauge survives disable" `Quick
           test_gauge_survives_disable;
         Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
         Alcotest.test_case "disabled allocates nothing" `Quick
           test_disabled_allocates_nothing ]);
      ("sketches",
       [ Alcotest.test_case "quantile accuracy" `Quick test_sketch_accuracy;
         Alcotest.test_case "shard merge under 4 domains" `Quick
           test_sketch_shard_merge;
         Alcotest.test_case "outlier exemplar" `Quick test_sketch_exemplar ]);
      ("window",
       [ Alcotest.test_case "rotation, rates, expiry" `Quick test_window ]);
      ("export",
       [ Alcotest.test_case "openmetrics format" `Quick
           test_openmetrics_format;
         Alcotest.test_case "snapshot + diff" `Quick test_snapshot_and_diff ]);
      ("sharding",
       [ Alcotest.test_case "merge under 4 domains" `Quick test_shard_merge;
         Alcotest.test_case "pool-size invariance" `Quick
           test_domain_invariance;
         Alcotest.test_case "span parenting invariance" `Quick
           test_parenting_invariance ]);
      ("instrumentation",
       [ Alcotest.test_case "ope cache counters" `Quick
           test_ope_cache_counters;
         Alcotest.test_case "index build and prewarm sketches" `Quick
           test_build_and_prewarm_sketches ]);
      ("json",
       [ Alcotest.test_case "depth bound" `Quick test_json_depth_bound;
         Alcotest.test_case "to_int exact" `Quick test_json_to_int_exact;
         Alcotest.test_case "string errors" `Quick test_json_string_errors;
         Alcotest.test_case "writer number rule" `Quick test_json_number_rule ]
       @ List.map (fun t -> QCheck_alcotest.to_alcotest t) json_properties);
      ("spans",
       [ Alcotest.test_case "ring overflow" `Quick test_span_ring_overflow;
         Alcotest.test_case "trace export is valid JSON" `Quick
           test_trace_export;
         Alcotest.test_case "registry dump json" `Quick
           test_registry_to_json;
         Alcotest.test_case "contexts are per thread" `Quick
           test_span_thread_isolation;
         Alcotest.test_case "raising section recorded" `Quick
           test_raising_section_recorded ]) ]

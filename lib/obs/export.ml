(* Export layer: OpenMetrics text exposition, a versioned JSON snapshot
   schema, and snapshot diffing.

   Every consumer of the registry outside the library goes through one
   of these two renderings: `dpe_cli stats/top` and the bench "metrics"
   stamp embed [snapshot] (schema "kitdpe.metrics" version 2, so
   later readers — `stats --diff`, tools/trend — can detect layout
   changes instead of misparsing), and [openmetrics] emits the
   Prometheus/OpenMetrics text format for scrape-style consumption.

   GC/runtime gauges are refreshed here, at snapshot time: polling
   [Gc.quick_stat] from the hot paths would be instrumentation noise,
   and at read time the numbers are exactly as fresh as everything else
   in the snapshot. *)

let schema_name = "kitdpe.metrics"
let schema_version = 2

(* ---- runtime gauges ---- *)

let g_minor = Registry.gauge "kitdpe.runtime.minor_collections"
let g_major = Registry.gauge "kitdpe.runtime.major_collections"
let g_heap = Registry.gauge "kitdpe.runtime.heap_words"
let g_promoted = Registry.gauge "kitdpe.runtime.promoted_words"

let refresh_runtime () =
  let s = Gc.quick_stat () in
  Metric.set_gauge g_minor s.Gc.minor_collections;
  Metric.set_gauge g_major s.Gc.major_collections;
  Metric.set_gauge g_heap s.Gc.heap_words;
  Metric.set_gauge g_promoted (int_of_float s.Gc.promoted_words)

(* ---- OpenMetrics text exposition ---- *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let add_openmetrics_sample b (s : Registry.sample) =
  let n = sanitize s.Registry.name in
  match s.Registry.value with
  | Registry.Vcounter v ->
    Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" n);
    Buffer.add_string b (Printf.sprintf "%s_total %d\n" n v)
  | Registry.Vgauge v ->
    Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" n);
    Buffer.add_string b (Printf.sprintf "%s %d\n" n v)
  | Registry.Vsketch { count; sum; p50; p90; p99; _ } ->
    Buffer.add_string b (Printf.sprintf "# TYPE %s summary\n" n);
    if count > 0 then begin
      Buffer.add_string b (Printf.sprintf "%s{quantile=\"0.5\"} %.1f\n" n p50);
      Buffer.add_string b (Printf.sprintf "%s{quantile=\"0.9\"} %.1f\n" n p90);
      Buffer.add_string b (Printf.sprintf "%s{quantile=\"0.99\"} %.1f\n" n p99)
    end;
    Buffer.add_string b (Printf.sprintf "%s_sum %d\n" n sum);
    Buffer.add_string b (Printf.sprintf "%s_count %d\n" n count)

let openmetrics () =
  refresh_runtime ();
  let b = Buffer.create 4096 in
  List.iter (add_openmetrics_sample b) (Registry.snapshot ());
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

(* ---- versioned JSON snapshot ---- *)

let is_rated name = function
  | Registry.Counter _ | Registry.Sketch _ ->
    (* per-lane substrate counters would bloat the rate table without
       informing any cost model; the aggregate pool metrics stay *)
    not (String.length name > 22
         && String.sub name 0 22 = "kitdpe.parallel.pool.l")
  | Registry.Gauge _ -> false

let snapshot ?now () =
  refresh_runtime ();
  let now = match now with Some t -> t | None -> Control.now_ns () in
  (* windowed view: ops/s for every monotonic metric, recent quantiles
     for every sketch *)
  let rates = ref [] and quantiles = ref [] in
  Registry.iter (fun name m ->
      if is_rated name m then (
        match Window.rate ~now name with
        | Some r -> rates := (name, Json.Num r) :: !rates
        | None -> ());
      match m with
      | Registry.Sketch _ ->
        let q p = Window.quantile ~now name p in
        (match (q 0.5, q 0.9, q 0.99) with
         | Some p50, Some p90, Some p99 ->
           quantiles :=
             ( name,
               Json.Obj
                 [ ("p50_ns", Json.Num p50);
                   ("p90_ns", Json.Num p90);
                   ("p99_ns", Json.Num p99) ] )
             :: !quantiles
         | _ -> ())
      | _ -> ());
  Json.Obj
    [ ("schema", Json.Str schema_name);
      ("schema_version", Json.int schema_version);
      ("generated_ns", Json.int now);
      ("spans",
       Json.Obj
         [ ("dropped", Json.int (Span.dropped ()));
           ("buffered", Json.int (List.length (Span.events ()))) ]);
      ("window",
       Json.Obj
         [ ("epoch_ns", Json.int (Window.epoch_ns ()));
           ("capacity", Json.int (Window.capacity ()));
           ("epochs", Json.int (Window.epoch_count ()));
           ("rates", Json.Obj (List.rev !rates));
           ("quantiles", Json.Obj (List.rev !quantiles)) ]);
      ("metrics", Registry.to_json ()) ]

(* ---- snapshot diffing ---- *)

(* accept both a full versioned snapshot and a bare PR-2-style registry
   dump (the metrics map at top level) *)
let metrics_of_json j =
  match Json.member "metrics" j with
  | Some (Json.Obj _ as m) -> Some m
  | Some _ | None -> (match j with Json.Obj _ -> Some j | _ -> None)

let old_field old name field =
  Option.bind (Json.member name old) (fun m ->
      Option.bind (Json.member field m) Json.to_num)

let diff ~old_json =
  match Json.parse old_json with
  | Error e -> Error ("--diff: cannot parse old snapshot: " ^ e)
  | Ok j ->
    (match metrics_of_json j with
     | None -> Error "--diff: old snapshot has no metrics object"
     | Some old ->
       let version =
         Option.bind (Json.member "schema_version" j) Json.to_int
       in
       let b = Buffer.create 1024 in
       (match version with
        | Some v when v <> schema_version ->
          Buffer.add_string b
            (Printf.sprintf
               "note: old snapshot has schema_version %d (current %d)\n" v
               schema_version)
        | _ -> ());
       Buffer.add_string b
         (Printf.sprintf "%-52s %14s %14s %12s\n" "metric" "old" "new" "delta");
       let row name old_v new_v =
         if abs_float (new_v -. old_v) > 1e-9 then
           Buffer.add_string b
             (Printf.sprintf "%-52s %14.0f %14.0f %+12.0f\n" name old_v new_v
                (new_v -. old_v))
       in
       List.iter
         (fun (s : Registry.sample) ->
           let name = s.Registry.name in
           match s.Registry.value with
           | Registry.Vcounter v | Registry.Vgauge v ->
             row name
               (Option.value ~default:0.0 (old_field old name "value"))
               (float_of_int v)
           | Registry.Vsketch { count; p50; p99; _ } ->
             row (name ^ ".count")
               (Option.value ~default:0.0 (old_field old name "count"))
               (float_of_int count);
             row (name ^ ".p50_ns")
               (Option.value ~default:0.0 (old_field old name "p50_ns"))
               p50;
             row (name ^ ".p99_ns")
               (Option.value ~default:0.0 (old_field old name "p99_ns"))
               p99)
         (Registry.snapshot ());
       (* names that disappeared since the old snapshot *)
       (match Json.to_obj old with
        | Some kvs ->
          List.iter
            (fun (name, _) ->
              if Registry.find name = None then
                Buffer.add_string b
                  (Printf.sprintf "%-52s %14s %14s %12s\n" name "-" "gone" ""))
            kvs
        | None -> ());
       Ok (Buffer.contents b))

(* Process-wide name -> metric table.  Creation takes a mutex (rare);
   updates go straight to the sharded cells; [snapshot] merges on read.

   Naming convention: [kitdpe.<layer>.<name>], e.g.
   [kitdpe.crypto.ope.cache_hits].  Metrics outside the
   [kitdpe.parallel.*] namespace describe the workload and are invariant
   under KITDPE_DOMAINS; [kitdpe.parallel.*] describes the execution
   substrate (per-lane task counts, busy time) and legitimately varies
   with the pool size. *)

type metric =
  | Counter of Metric.counter
  | Gauge of Metric.gauge
  | Sketch of Sketch.t

let lock = Mutex.create ()
let table : (string, metric) Hashtbl.t = Hashtbl.create 64

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let get_or_create name project inject =
  locked (fun () ->
      match Hashtbl.find_opt table name with
      | Some m ->
        (match project m with
         | Some v -> v
         | None ->
           invalid_arg
             ("Obs.Registry: " ^ name ^ " already registered with another kind"))
      | None ->
        let v = inject () in
        Hashtbl.replace table name
          (match v with
           | `C c -> Counter c
           | `G g -> Gauge g
           | `S s -> Sketch s);
        v)

let counter name =
  match
    get_or_create name
      (function Counter c -> Some (`C c) | _ -> None)
      (fun () -> `C (Metric.counter ()))
  with
  | `C c -> c
  | _ -> assert false

let gauge name =
  match
    get_or_create name
      (function Gauge g -> Some (`G g) | _ -> None)
      (fun () -> `G (Metric.gauge ()))
  with
  | `G g -> g
  | _ -> assert false

let sketch name =
  match
    get_or_create name
      (function Sketch s -> Some (`S s) | _ -> None)
      (fun () -> `S (Sketch.create ()))
  with
  | `S s -> s
  | _ -> assert false

(* ---- merge-on-read snapshots ---- *)

type value =
  | Vcounter of int
  | Vgauge of int
  | Vsketch of {
      count : int;
      sum : int;
      max : int;
      p50 : float;
      p90 : float;
      p99 : float;
      exemplar : (int * int * int) option;
    }

type sample = { name : string; value : value }

let read_metric = function
  | Counter c -> Vcounter (Metric.value c)
  | Gauge g -> Vgauge (Metric.gauge_value g)
  | Sketch s ->
    let sparse = Sketch.sparse s in
    let q p = Option.value ~default:0.0 (Sketch.quantile_of_sparse sparse p) in
    Vsketch
      { count = Sketch.count s;
        sum = Sketch.sum s;
        max = Sketch.max_value s;
        p50 = q 0.5;
        p90 = q 0.9;
        p99 = q 0.99;
        exemplar =
          Option.map
            (fun (e : Sketch.exemplar) -> (e.ex_value, e.ex_trace, e.ex_span))
            (Sketch.exemplar s) }

let snapshot () =
  let items =
    locked (fun () -> Hashtbl.fold (fun name m acc -> (name, m) :: acc) table [])
  in
  items
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (name, m) -> { name; value = read_metric m })

let find name =
  let m = locked (fun () -> Hashtbl.find_opt table name) in
  Option.map read_metric m

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> Metric.reset_counter c
          | Gauge g -> Metric.reset_gauge g
          | Sketch s -> Sketch.reset s)
        table)

(* typed iteration for in-library consumers ([Window] deltas need the
   raw sketch buckets, not the rendered snapshot); the callback runs
   outside the lock so it may itself touch the registry *)
let iter f =
  let items =
    locked (fun () -> Hashtbl.fold (fun name m acc -> (name, m) :: acc) table [])
  in
  items
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, m) -> f name m)

let find_metric name = locked (fun () -> Hashtbl.find_opt table name)

(* ---- rendering ---- *)

let pp_value ppf = function
  | Vcounter v | Vgauge v -> Format.fprintf ppf "%d" v
  | Vsketch { count; sum; max; p50; p90; p99; exemplar } ->
    Format.fprintf ppf "count=%d sum_ns=%d max_ns=%d p50=%.0f p90=%.0f p99=%.0f"
      count sum max p50 p90 p99;
    (match exemplar with
     | Some (v, trace, span) ->
       Format.fprintf ppf " exemplar=%dns@%d/%d" v trace span
     | None -> ())

let dump ppf =
  List.iter
    (fun s -> Format.fprintf ppf "%-52s %a@." s.name pp_value s.value)
    (snapshot ())

let json_of_value = function
  | Vcounter v -> Json.Obj [ ("type", Json.Str "counter"); ("value", Json.int v) ]
  | Vgauge v -> Json.Obj [ ("type", Json.Str "gauge"); ("value", Json.int v) ]
  | Vsketch { count; sum; max; p50; p90; p99; exemplar } ->
    Json.Obj
      ([ ("type", Json.Str "sketch");
         ("count", Json.int count);
         ("sum_ns", Json.int sum);
         ("max_ns", Json.int max);
         ("p50_ns", Json.Num p50);
         ("p90_ns", Json.Num p90);
         ("p99_ns", Json.Num p99) ]
      @
      match exemplar with
      | Some (v, trace, span) ->
        [ ("exemplar",
           Json.Obj
             [ ("value_ns", Json.int v);
               ("trace", Json.int trace);
               ("span", Json.int span) ]) ]
      | None -> [])

let to_json () =
  Json.Obj (List.map (fun s -> (s.name, json_of_value s.value)) (snapshot ()))

(* Perf snapshots (the BENCH_PR*.json artifacts written by [perf --json])
   and their comparison.  A snapshot holds timed rows, each the median
   and interquartile range of its samples, and exact work counts.  It is
   read and written with the in-repo [Obs.Json], as [tools/trend] reads
   it. *)

module J = Obs.Json

(* One timing, in ns per operation. *)
type spread = { median : float; iqr : float }

(* Quartiles by linear interpolation between the order statistics. *)
let summarize samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  let last = Array.length a - 1 in
  let q p =
    let h = p *. float_of_int last in
    let i = int_of_float h in
    if i >= last then a.(last)
    else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  in
  { median = q 0.5; iqr = q 0.75 -. q 0.25 }

type row = {
  op : string;
  n : int;
  domains : int;
  cur : spread;  (* the optimized path, or the row's only path *)
  base : (spread * bool) option;
      (* the baseline path, and whether both paths computed the same answer *)
}

type snapshot = { rows : row list; counts : (string * int) list }

let pretty ns =
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.1f ns" ns

let show s = pretty s.median ^ " ±" ^ pretty s.iqr

let speedup r b = b.median /. r.cur.median

(* ---- the one printer ---- *)

let print_header ppf =
  Format.fprintf ppf "%-28s %-6s %-7s %-22s %-22s %-8s %s@." "op" "n" "domains"
    "baseline ±IQR" "optimized ±IQR" "speedup" "identical";
  Format.fprintf ppf "%s@." (String.make 110 '-')

let print_row ppf r =
  let b, sp, id =
    match r.base with
    | None -> ("-", "-", "-")
    | Some (b, identical) ->
      (show b, Printf.sprintf "%.2f" (speedup r b), string_of_bool identical)
  in
  Format.fprintf ppf "%-28s %-6d %-7d %-22s %-22s %-8s %s@." r.op r.n r.domains
    b (show r.cur) sp id

let print_counts ppf counts =
  Format.fprintf ppf "@.%-36s %s@." "count" "value";
  List.iter (fun (k, v) -> Format.fprintf ppf "%-36s %d@." k v) counts

(* ---- the one JSON writer and its reader ---- *)

let ns x = J.Num (Float.round (x *. 10.0) /. 10.0)

let spread_fields prefix s =
  [ (prefix ^ "ns_per_op", ns s.median); (prefix ^ "spread_ns", ns s.iqr) ]

let row_json r =
  J.Obj
    ([ ("op", J.Str r.op); ("n", J.int r.n); ("domains", J.int r.domains) ]
     @ spread_fields "" r.cur
     @
     match r.base with
     | None -> []
     | Some (b, identical) ->
       spread_fields "baseline_" b
       @ [ ("speedup", J.Num (Float.round (speedup r b *. 1e3) /. 1e3));
           ("identical", J.Bool identical) ])

(* The snapshot's own fields of the artifact's top-level object. *)
let fields s =
  [ ("results", J.Arr (List.map row_json s.rows));
    ("counts", J.Obj (List.map (fun (k, v) -> (k, J.int v)) s.counts)) ]

(* Snapshots written before rows carried spreads read with a spread of
   0; a row lacking its op, n or ns_per_op is skipped. *)
let row_of r =
  let field name conv = Option.bind (J.member name r) conv in
  let spread prefix =
    Option.map
      (fun median ->
        { median;
          iqr = Option.value (field (prefix ^ "spread_ns") J.to_num) ~default:0.0 })
      (field (prefix ^ "ns_per_op") J.to_num)
  in
  match field "op" J.to_str, field "n" J.to_int, spread "" with
  | Some op, Some n, Some cur ->
    let identical =
      field "identical" (function J.Bool b -> Some b | _ -> None)
    in
    Some
      { op; n; domains = Option.value (field "domains" J.to_int) ~default:1;
        cur;
        base =
          Option.map
            (fun b -> (b, Option.value identical ~default:false))
            (spread "baseline_") }
  | _ -> None

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s ->
    (match J.parse s with
     | Error e -> Error (path ^ ": " ^ e)
     | Ok root ->
       (match Option.bind (J.member "results" root) J.to_list with
        | None -> Error (path ^ ": no \"results\" array")
        | Some rs ->
          let counts =
            Option.value ~default:[]
              (Option.bind (J.member "counts" root) J.to_obj)
            |> List.filter_map (fun (k, v) ->
                   Option.map (fun v -> (k, v)) (J.to_int v))
          in
          Ok { rows = List.filter_map row_of rs; counts }))

(* ---- comparison ---- *)

type verdict =
  | Same
  | Slower  (* wall clock: more than 20 % slower and outside both spreads *)
  | Rose  (* an exact count went up *)
  | Unpaired  (* in one snapshot only: reported, never gated *)

type line = { what : string; old_v : string; new_v : string; verdict : verdict }

(* A count is exact, so any rise fails.  A timing only warns, and only
   when the medians differ by more than a fifth and by more than the two
   interquartile ranges together: short of that, the two runs do not
   tell the paths apart on a noisy host. *)
let timing_verdict ~old ~cur =
  if cur.median > 1.2 *. old.median && cur.median -. old.median > cur.iqr +. old.iqr
  then Slower
  else Same

let count_verdict ~old ~cur = if cur > old then Rose else Same

let pair ~key ~label ~show ~verdict olds curs =
  let find k l = List.find_opt (fun x -> key x = k) l in
  List.map
    (fun c ->
      match find (key c) olds with
      | None -> { what = label c; old_v = "-"; new_v = show c; verdict = Unpaired }
      | Some o ->
        { what = label c; old_v = show o; new_v = show c; verdict = verdict o c })
    curs
  @ List.filter_map
      (fun o ->
        match find (key o) curs with
        | Some _ -> None
        | None ->
          Some { what = label o; old_v = show o; new_v = "-"; verdict = Unpaired })
      olds

let compare ~old ~cur =
  pair
    ~key:(fun r -> (r.op, r.n))
    ~label:(fun r -> Printf.sprintf "%s n=%d" r.op r.n)
    ~show:(fun r -> show r.cur)
    ~verdict:(fun o c -> timing_verdict ~old:o.cur ~cur:c.cur)
    old.rows cur.rows
  @ pair ~key:fst ~label:fst
      ~show:(fun (_, v) -> string_of_int v)
      ~verdict:(fun (_, o) (_, c) -> count_verdict ~old:o ~cur:c)
      old.counts cur.counts

(* Exit status of [perf --compare]: 4 when a count rose (CI fails on
   it), 3 when a timing got slower (CI warns), 0 otherwise. *)
let exit_code lines =
  if List.exists (fun l -> l.verdict = Rose) lines then 4
  else if List.exists (fun l -> l.verdict = Slower) lines then 3
  else 0

let report ~old_label lines ppf =
  Format.fprintf ppf "@.perf comparison vs %s:@." old_label;
  Format.fprintf ppf "%-40s %-22s %-22s %s@." "row" "old" "new" "verdict";
  Format.fprintf ppf "%s@." (String.make 100 '-');
  List.iter
    (fun l ->
      Format.fprintf ppf "%-40s %-22s %-22s %s@." l.what l.old_v l.new_v
        (match l.verdict with
         | Same -> "ok"
         | Slower -> "SLOWER"
         | Rose -> "COUNT ROSE"
         | Unpaired -> "one side only"))
    lines

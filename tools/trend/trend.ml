(* Perf trajectory across PR snapshots.

     dune exec tools/trend/trend.exe -- BENCH_PR*.json
     dune exec tools/trend/trend.exe -- --json trend.json BENCH_PR*.json

   Reads every [perf --json] snapshot given on the command line, orders
   them by their embedded ["pr"] number and prints one row per measured
   operation — keyed by (op, n, domains), since the suite measures some
   ops at several sizes — with the ns/op at each PR and the cumulative
   improvement factor (first / last).  [--json] additionally writes the
   series as a machine-readable artifact for CI to archive.

   Snapshots are parsed with the in-repo [Obs.Json] reader, so the tool
   works with both the current versioned ["metrics"] stamp and the older
   bare registry dumps. *)

module J = Obs.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

type point = {
  pr : int;
  ns_per_op : float;
  speedup : float option;  (* rows without a baseline path have none *)
  identical : bool;
}

type snapshot = {
  s_pr : int;
  s_file : string;
  s_results : (string * int * int * float * float option * bool) list;
      (* op, n, domains, ns_per_op, speedup, identical *)
}

let load_snapshot path =
  match J.parse (read_file path) with
  | Error e -> die "%s: %s" path e
  | Ok root ->
    let pr =
      match Option.bind (J.member "pr" root) J.to_int with
      | Some pr -> pr
      | None -> die "%s: no \"pr\" field" path
    in
    let results =
      match Option.bind (J.member "results" root) J.to_list with
      | Some rs -> rs
      | None -> die "%s: no \"results\" array" path
    in
    let field name conv r =
      match Option.bind (J.member name r) conv with
      | Some v -> v
      | None -> die "%s: result entry lacks %S" path name
    in
    { s_pr = pr;
      s_file = Filename.basename path;
      s_results =
        List.map
          (fun r ->
            ( field "op" J.to_str r,
              field "n" J.to_int r,
              field "domains" J.to_int r,
              field "ns_per_op" J.to_num r,
              Option.bind (J.member "speedup" r) J.to_num,
              match Option.bind (J.member "identical" r) (function
                  | J.Bool b -> Some b
                  | _ -> None)
              with
              | Some b -> b
              | None -> false ))
          results }

(* series key: the measured operation at a fixed problem size and pool
   width, so points are comparable across snapshots *)
let key (op, n, domains, _, _, _) = (op, n, domains)

let collect snapshots =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun s ->
      List.iter
        (fun ((op, n, d, ns, sp, id) as r) ->
          let k = key r in
          if not (Hashtbl.mem tbl k) then order := k :: !order;
          Hashtbl.replace tbl k
            ({ pr = s.s_pr; ns_per_op = ns; speedup = sp; identical = id }
            :: (try Hashtbl.find tbl k with Not_found -> []));
          ignore (op, n, d))
        s.s_results)
    snapshots;
  List.rev_map
    (fun k -> (k, List.rev (Hashtbl.find tbl k)))
    !order
  |> List.rev

let improvement points =
  match points with
  | [] | [ _ ] -> 1.0
  | first :: _ ->
    let last = List.nth points (List.length points - 1) in
    if last.ns_per_op > 0.0 then first.ns_per_op /. last.ns_per_op else 1.0

let pretty ns =
  if ns >= 1e9 then Printf.sprintf "%.2fs" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2fms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.1fus" (ns /. 1e3)
  else Printf.sprintf "%.0fns" ns

(* [index/*_probes/*] rows carry per-query probe counts in the ns
   fields (the suite's cost-model series, not wall time) — render them
   as bare counts rather than durations *)
let is_probe_op op =
  List.exists
    (fun seg -> seg = "probes" || seg = "vp_probes" || seg = "bk_probes")
    (String.split_on_char '/' op)

let print_table snapshots series =
  Printf.printf "%-40s" "op";
  List.iter (fun s -> Printf.printf " %12s" (Printf.sprintf "PR%d" s.s_pr))
    snapshots;
  Printf.printf " %10s\n" "trend";
  List.iter
    (fun ((op, n, d), points) ->
      Printf.printf "%-40s" (Printf.sprintf "%s(n=%d,d=%d)" op n d);
      let show v =
        if is_probe_op op then Printf.sprintf "%.0f probes" v else pretty v
      in
      List.iter
        (fun s ->
          match List.find_opt (fun p -> p.pr = s.s_pr) points with
          | Some p -> Printf.printf " %12s" (show p.ns_per_op)
          | None -> Printf.printf " %12s" "-")
        snapshots;
      let f = improvement points in
      Printf.printf " %9.2fx\n" f)
    series

let emit_json path snapshots series =
  let point p =
    J.Obj
      [ ("pr", J.int p.pr); ("ns_per_op", J.Num (Float.round p.ns_per_op));
        ("speedup", Option.fold ~none:J.Null ~some:(fun x -> J.Num x) p.speedup);
        ("identical", J.Bool p.identical) ]
  in
  let row ((op, n, d), points) =
    J.Obj
      [ ("op", J.Str op); ("n", J.int n); ("domains", J.int d);
        ("improvement", J.Num (Float.round (improvement points *. 1e3) /. 1e3));
        ("points", J.Arr (List.map point points)) ]
  in
  let snapshot s = J.Obj [ ("pr", J.int s.s_pr); ("file", J.Str s.s_file) ] in
  let oc = open_out path in
  output_string oc
    (J.to_string
       (J.Obj
          [ ("schema", J.Str "kitdpe.trend"); ("schema_version", J.int 1);
            ("snapshots", J.Arr (List.map snapshot snapshots));
            ("series", J.Arr (List.map row series)) ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" path

let () =
  let json_out = ref None in
  let files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--json" :: path :: rest ->
      json_out := Some path;
      parse_args rest
    | "--json" :: [] -> die "--json needs an output path"
    | f :: rest ->
      files := f :: !files;
      parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let files = List.rev !files in
  if files = [] then
    die "usage: trend [--json OUT.json] BENCH_PR*.json...";
  let snapshots =
    List.map load_snapshot files
    |> List.sort (fun a b ->
           match compare a.s_pr b.s_pr with
           | 0 -> compare a.s_file b.s_file
           | c -> c)
  in
  let series = collect snapshots in
  print_table snapshots series;
  match !json_out with
  | Some path -> emit_json path snapshots series
  | None -> ()

(* Comparison of two perf-trajectory snapshots (the BENCH_PR*.json
   artifacts emitted by [perf --json]), read with the in-repo [Obs.Json]
   reader as [tools/trend] does.  A result entry lacking one of the
   compared fields is skipped. *)

module J = Obs.Json

type entry = {
  op : string;
  n : int;
  ns_per_op : float;          (* optimized path, ns/op *)
  baseline_ns_per_op : float;
  identical : bool;
}

let entry_of r =
  let field name conv = Option.bind (J.member name r) conv in
  match
    ( field "op" J.to_str, field "n" J.to_int, field "ns_per_op" J.to_num,
      field "baseline_ns_per_op" J.to_num,
      field "identical" (function J.Bool b -> Some b | _ -> None) )
  with
  | Some op, Some n, Some ns_per_op, Some baseline_ns_per_op, Some identical ->
    Some { op; n; ns_per_op; baseline_ns_per_op; identical }
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
          (match List.filter_map entry_of rs with
           | [] -> Error (path ^ ": no parsable result entries")
           | es -> Ok es)))

let regression_threshold = 1.20

let min_gate_ns = 1000.0
(* ops below 1 us/op sit at the wall-clock timer's resolution; their
   ratios are jitter, not signal, so they are reported but never gate *)

(* Print the per-op old-vs-new table; [true] iff some op present in both
   snapshots with [identical = true] in both got more than 20% slower.
   Ops measured with [identical = false] (e.g. probabilistic ciphers
   compared structurally) and sub-microsecond ops never gate. *)
let report ~old_label ~old_entries ~cur_entries ppf =
  let pretty ns =
    if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  Format.fprintf ppf "@.perf comparison vs %s (new/old < 1.0 = faster):@."
    old_label;
  Format.fprintf ppf "%-28s %-7s %-14s %-14s %-9s %s@." "op" "n" "old" "new"
    "new/old" "verdict";
  Format.fprintf ppf "%s@." (String.make 100 '-');
  let regressed = ref false in
  List.iter
    (fun cur ->
      match
        List.find_opt (fun old -> old.op = cur.op && old.n = cur.n) old_entries
      with
      | None ->
        Format.fprintf ppf "%-28s %-7d %-14s %-14s %-9s %s@." cur.op cur.n "-"
          (pretty cur.ns_per_op) "-" "new op"
      | Some old ->
        let ratio = cur.ns_per_op /. old.ns_per_op in
        let gates =
          old.identical && cur.identical && old.ns_per_op >= min_gate_ns
        in
        let bad = gates && ratio > regression_threshold in
        if bad then regressed := true;
        Format.fprintf ppf "%-28s %-7d %-14s %-14s %-9.2f %s@." cur.op cur.n
          (pretty old.ns_per_op) (pretty cur.ns_per_op) ratio
          (if bad then "REGRESSED"
           else if not old.identical || not cur.identical then
             "untracked (identical=false)"
           else if not gates then "untracked (sub-us op)"
           else if ratio < 1.0 then "faster"
           else "ok"))
    cur_entries;
  !regressed

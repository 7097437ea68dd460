(* Command line of the end-to-end dpe_serve benchmark:

     serve_bench --workload <encrypt|mine|mine-index|mixed> --seed <n>
                 --seconds <s> --trace <0|1>

   Prints a detail line (stamp, per-op sample counts, check failures)
   and, as the last line, one JSON result object.  Exit code 2 on bad
   arguments or a failed set-up, without a result line. *)

let usage () =
  prerr_endline
    "usage: serve_bench --workload <encrypt|mine|mine-index|mixed> --seed <n> \
     --seconds <s> --trace <0|1>";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let workload =
    match Servebench.Gen.workload_of_string (get "workload") with
    | Some w -> w
    | None -> usage ()
  in
  let int_arg k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let seed = string_of_int (int_arg "seed") in
  let seconds = max 1 (int_arg "seconds") in
  let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  match
    if traced then Servebench.Layers.run_traced ~seed ~seconds workload
    else Servebench.Bench.run_untraced ~seed ~seconds workload
  with
  | r ->
    print_endline (Server.Proto.render (Obs.Json.Obj r.Servebench.Bench.report));
    print_endline (Servebench.Bench.result_line r)
  | exception Servebench.Bench.Failed msg ->
    prerr_endline ("serve_bench: " ^ msg);
    exit 2

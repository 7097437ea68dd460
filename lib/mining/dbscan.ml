type params = { eps : float; min_pts : int }

type range_index = {
  ri_n : int;
  range : int -> int list;
}

let m_runs = Obs.Registry.counter "kitdpe.mining.dbscan.runs"
let m_scans = Obs.Registry.counter "kitdpe.mining.dbscan.neighbor_scans"
let m_clusters = Obs.Registry.counter "kitdpe.mining.dbscan.clusters_found"

(* the one DBSCAN core: every neighborhood comes from [range], whether
   a matrix scan or an index query answers it *)
let expand ~n ~min_pts ~range =
  let neighbors i =
    Obs.Metric.incr m_scans;
    range i
  in
  let labels = Array.make n (-2) in
  (* -2 unvisited, -1 noise, >= 0 cluster id *)
  let cluster = ref (-1) in
  for i = 0 to n - 1 do
    if labels.(i) = -2 then begin
      let nbrs = neighbors i in
      if List.length nbrs + 1 < min_pts then labels.(i) <- -1
      else begin
        incr cluster;
        labels.(i) <- !cluster;
        (* expand the cluster with a work queue *)
        let queue = Queue.create () in
        List.iter (fun j -> Queue.add j queue) nbrs;
        while not (Queue.is_empty queue) do
          let j = Queue.pop queue in
          if labels.(j) = -1 then labels.(j) <- !cluster (* border point *)
          else if labels.(j) = -2 then begin
            labels.(j) <- !cluster;
            let nbrs_j = neighbors j in
            if List.length nbrs_j + 1 >= min_pts then
              List.iter (fun k -> Queue.add k queue) nbrs_j
          end
        done
      end
    end
  done;
  labels

let run_index ~min_pts ri =
  let t0 = Obs.time_start () in
  let labels = expand ~n:ri.ri_n ~min_pts ~range:ri.range in
  if t0 > 0 then begin
    Obs.Metric.incr m_runs;
    Obs.Metric.add m_clusters (Array.fold_left max (-1) labels + 1);
    Obs.Span.record ~cat:"mining"
      ~name:(Printf.sprintf "dbscan(n=%d)" ri.ri_n)
      ~ts_ns:t0 ~dur_ns:(Obs.now_ns () - t0) ()
  end;
  labels

(* the matrix's eps-neighborhoods, ascending: the downto-prepend scan
   yields the order an index's [range] returns *)
let run { eps; min_pts } m =
  let n = Dist_matrix.size m in
  let range i =
    let acc = ref [] in
    for j = n - 1 downto 0 do
      if j <> i && Dist_matrix.get m i j <= eps then acc := j :: !acc
    done;
    !acc
  in
  run_index ~min_pts { ri_n = n; range }

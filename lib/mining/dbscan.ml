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
  (* |nbrs| + 1 >= min_pts, counting no further than min_pts - 1 *)
  let core nbrs = List.compare_length_with nbrs (min_pts - 1) >= 0 in
  let labels = Array.make n (-2) in
  (* -2 unvisited, -3 queued, -1 noise, >= 0 cluster id *)
  let cluster = ref (-1) in
  (* the FIFO work list: an unvisited point is queued at its first push
     and scanned when it is popped, in the order a queue of every push
     would scan it; a noise point reached from a core point is a border
     point at once.  Each point is queued at most once, so n cells
     hold the queue of the whole run. *)
  let work = Array.make n 0 and head = ref 0 and tail = ref 0 in
  let push j =
    if labels.(j) = -1 then labels.(j) <- !cluster
    else if labels.(j) = -2 then begin
      labels.(j) <- -3;
      work.(!tail) <- j;
      incr tail
    end
  in
  for i = 0 to n - 1 do
    if labels.(i) = -2 then begin
      let nbrs = neighbors i in
      if not (core nbrs) then labels.(i) <- -1
      else begin
        incr cluster;
        labels.(i) <- !cluster;
        List.iter push nbrs;
        while !head < !tail do
          let j = work.(!head) in
          incr head;
          labels.(j) <- !cluster;
          let nbrs_j = neighbors j in
          if core nbrs_j then List.iter push nbrs_j
        done
      end
    end
  done;
  labels

let run_index ~min_pts ri =
  Obs.Span.with_span ~cat:"mining" (Printf.sprintf "dbscan(n=%d)" ri.ri_n)
    (fun () ->
      let labels = expand ~n:ri.ri_n ~min_pts ~range:ri.range in
      if Obs.is_enabled () then begin
        Obs.Metric.incr m_runs;
        Obs.Metric.add m_clusters (Array.fold_left max (-1) labels + 1)
      end;
      labels)

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

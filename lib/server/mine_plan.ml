(* The mining planner: one decision table (see the interface) and the
   only copy of the algorithm parameters and the neighbor-engine wiring,
   shared by [dpe_cli mine] and the server's mine op. *)

module M = Distance.Measure

type algo = Dbscan | Kmedoids | Outliers | Clink
type engine = Matrix | Index

type t = {
  measure : M.t;
  algo : algo;
  engine : engine;
  fallback : string option;
}

let auto_index_threshold = 512

(* 4096·4095/2 packed floats are 64 MiB: the largest matrix one request
   may build *)
let max_matrix_n = 4096

let engine_name = function Matrix -> "matrix" | Index -> "index"

let protocol fmt =
  Printf.ksprintf (fun reason -> Error (Fault.Error.Protocol { reason })) fmt

let algo_of_string = function
  | "dbscan" -> Ok Dbscan
  | "kmedoids" -> Ok Kmedoids
  | "outliers" -> Ok Outliers
  | "clink" -> Ok Clink
  | other -> protocol "unknown algo %S (dbscan, kmedoids, outliers or clink)" other

let k_fits algo ~k ~n =
  match algo with
  | Kmedoids | Clink -> 1 <= k && k <= n
  | Dbscan | Outliers -> true

let plan ~measure ~algo:algo_s ~engine:requested ~n ~k =
  match algo_of_string algo_s with
  | Error _ as e -> e
  | Ok algo when not (k_fits algo ~k ~n) ->
    protocol "k = %d out of range [1, %d] for algo %s" k n algo_s
  | Ok algo -> (
    let indexable = Index.Space.supported measure in
    let planned engine = Ok { measure; algo; engine; fallback = None } in
    let chosen =
      match (requested, algo) with
      | "matrix", _ -> planned Matrix
      | "auto", Dbscan when indexable && n >= auto_index_threshold ->
        planned Index
      | "auto", _ -> planned Matrix
      | "index", Dbscan when indexable -> planned Index
      | "index", _ ->
        Ok
          { measure; algo; engine = Matrix;
            fallback =
              Some
                (Printf.sprintf
                   "engine index does not cover algo %s on measure %s" algo_s
                   (M.to_string measure)) }
      | other, _ -> protocol "unknown engine %S (auto, matrix or index)" other
    in
    match chosen with
    | Ok { engine = Matrix; _ } when n > max_matrix_n ->
      if algo = Dbscan && indexable then
        Ok
          { measure; algo; engine = Index;
            fallback =
              Some
                (Printf.sprintf "matrix engine bounded at n <= %d, log has %d"
                   max_matrix_n n) }
      else
        protocol "n = %d exceeds the matrix bound %d for algo %s on measure %s"
          n max_matrix_n algo_s (M.to_string measure)
    | chosen -> chosen)

type params = { k : int; eps : float; seed : string }

let min_pts = 3

let on_matrix p t dm =
  match t.algo with
  | Dbscan -> Mining.Dbscan.run { Mining.Dbscan.eps = p.eps; min_pts } dm
  | Kmedoids -> Mining.Kmedoids.run { Mining.Kmedoids.k = p.k; max_iter = 50 } dm
  | Outliers ->
    Mining.Outlier.run { Mining.Outlier.p = 0.95; d = p.eps } dm
    |> Array.map (fun b -> if b then 1 else 0)
  | Clink -> Mining.Hier.cut_k p.k dm

(* DBSCAN over index range queries on the feature table (the prefix
   filter; the BK-tree for edit); every failure, including an armed
   fault point, comes back typed *)
let via_index p t log =
  Fault.protect ~context:"Server.Mine_plan.run" (fun () ->
      let feats = Distance.Features.build (Array.of_list log) in
      (* [plan] picks Index for indexable measures only *)
      let tree =
        Index.Vp_tree.build ~seed:p.seed
          (Option.get (Index.Space.of_measure t.measure feats))
      in
      Mining.Dbscan.run_index ~min_pts
        { Mining.Dbscan.ri_n = List.length log;
          range = (fun i -> Index.Vp_tree.range tree ~eps:p.eps i) })

let run ?(ctx = M.default_ctx) p t log =
  let via_matrix t =
    ( t,
      Result.bind (M.matrix_r ctx t.measure log) (fun dm ->
          (* the algorithm checks the request deadline, so it can fail
             too *)
          Fault.protect ~context:"Server.Mine_plan.run" (fun () ->
              on_matrix p t dm)
          |> Result.map_error (fun e -> [ e ])) )
  in
  match t.engine with
  | Matrix -> via_matrix t
  | Index -> (
    match via_index p t log with
    | Ok labels -> (t, Ok labels)
    | Error e when List.length log > max_matrix_n ->
      (* no fallback can build a matrix above the bound *)
      (t, Error [ e ])
    | Error e ->
      via_matrix
        { t with
          engine = Matrix;
          fallback =
            Some
              (Printf.sprintf "index engine failed: %s"
                 (Fault.Error.to_string e)) })

(* The mining planner: one decision table (see the interface) and the
   only copy of the algorithm parameters and the neighbor-engine wiring,
   shared by [dpe_cli mine] and the server's mine op. *)

module M = Distance.Measure

type algo = Dbscan | Kmedoids | Outliers | Clink
type engine = Matrix | Oracle | Index | Clarans

type t = {
  measure : M.t;
  algo : algo;
  engine : engine;
  fallback : string option;
}

let auto_index_threshold = 512

let engine_name = function
  | Matrix -> "matrix"
  | Oracle -> "oracle"
  | Index -> "index"
  | Clarans -> "clarans"

let protocol fmt =
  Printf.ksprintf (fun reason -> Error (Fault.Error.Protocol { reason })) fmt

let algo_of_string = function
  | "dbscan" -> Ok Dbscan
  | "kmedoids" -> Ok Kmedoids
  | "outliers" -> Ok Outliers
  | "clink" -> Ok Clink
  | other -> protocol "unknown algo %S (dbscan, kmedoids, outliers or clink)" other

let plan ~measure ~algo:algo_s ~engine:requested ~n =
  match algo_of_string algo_s with
  | Error _ as e -> e
  | Ok algo -> (
    let indexable = Index.Space.supported measure in
    let planned engine = Ok { measure; algo; engine; fallback = None } in
    match (requested, algo) with
    | "matrix", _ -> planned Matrix
    | "auto", Dbscan when indexable && n >= auto_index_threshold -> planned Index
    | "auto", _ -> planned Matrix
    | "oracle", Dbscan when indexable -> planned Oracle
    | "index", Dbscan when indexable -> planned Index
    | "index", Kmedoids when indexable -> planned Clarans
    | ("oracle" | "index"), _ ->
      Ok
        { measure; algo; engine = Matrix;
          fallback =
            Some
              (Printf.sprintf "engine %s does not cover algo %s on measure %s"
                 requested algo_s (M.to_string measure)) }
    | other, _ -> protocol "unknown engine %S (auto, matrix, oracle or index)" other)

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

(* the matrix-free engines over the feature table; every failure,
   including an armed fault point, comes back typed *)
let neighbors ctx p t log =
  Fault.protect ~context:"Server.Mine_plan.run" (fun () ->
      let n = List.length log in
      let feats = Distance.Features.build (Array.of_list log) in
      (* [plan] picks these engines for indexable measures only *)
      let space () = Option.get (Index.Space.of_measure t.measure feats) in
      match t.engine with
      | Oracle ->
        let sp = space () in
        Mining.Dbscan.run_oracle ~min_pts
          { Mining.Dbscan.o_n = n;
            within = (fun i j -> Index.Space.within sp ~eps:p.eps i j) }
      | Index ->
        let tree = Index.Vp_tree.build ~seed:p.seed (space ()) in
        Mining.Dbscan.run_index ~min_pts
          { Mining.Dbscan.ri_n = n;
            range = (fun i -> Index.Vp_tree.range tree ~eps:p.eps i) }
      | Clarans | Matrix (* [run] never sends Matrix here *) ->
        let rng = Crypto.Drbg.create ~seed:(p.seed ^ "/clarans") in
        Mining.Kmedoids.run_clarans ~rand:(Crypto.Drbg.uniform_int rng)
          { Mining.Kmedoids.c_k = p.k;
            num_local = 2;
            max_neighbor = max 250 (p.k * (n - p.k) / 80) }
          ~n ~d:(M.pair_of_features ctx t.measure feats))

let run ?(ctx = M.default_ctx) p t log =
  let via_matrix t =
    (t, Result.map (on_matrix p t) (M.matrix_r ctx t.measure log))
  in
  match t.engine with
  | Matrix -> via_matrix t
  | Oracle | Index | Clarans -> (
    match neighbors ctx p t log with
    | Ok labels -> (t, Ok labels)
    | Error e ->
      via_matrix
        { t with
          engine = Matrix;
          fallback =
            Some
              (Printf.sprintf "%s engine failed: %s" (engine_name t.engine)
                 (Fault.Error.to_string e)) })

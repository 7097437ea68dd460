let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* two tight groups far apart, plus one isolated point at index 6 *)
let blobs =
  let coords = [| 0.0; 0.1; 0.2; 10.0; 10.1; 10.2; 50.0 |] in
  Mining.Dist_matrix.of_fun (Array.length coords) (fun i j ->
      Float.abs (coords.(i) -. coords.(j)))

let test_dist_matrix () =
  check_bool "valid" true (Mining.Dist_matrix.validate blobs = Ok ());
  check_int "size" 7 (Mining.Dist_matrix.size blobs);
  check_float "symmetric entry" 10.0 (Mining.Dist_matrix.get blobs 0 3);
  let neg = Mining.Dist_matrix.of_fun 2 (fun _ _ -> -1.0) in
  check_bool "negative detected" true (Mining.Dist_matrix.validate neg <> Ok ());
  check_float "max_abs_diff zero" 0.0 (Mining.Dist_matrix.max_abs_diff blobs blobs)

let test_dbscan () =
  let labels = Mining.Dbscan.run { Mining.Dbscan.eps = 0.5; min_pts = 2 } blobs in
  check_int "cluster of first" labels.(0) labels.(1);
  check_int "cluster of first b" labels.(0) labels.(2);
  check_int "second cluster" labels.(3) labels.(4);
  check_bool "two distinct clusters" true (labels.(0) <> labels.(3));
  check_int "isolated is noise" (-1) labels.(6);
  (* eps large enough to merge everything *)
  let all = Mining.Dbscan.run { Mining.Dbscan.eps = 100.0; min_pts = 2 } blobs in
  check_bool "single cluster" true (Array.for_all (fun l -> l = 0) all);
  (* min_pts too high: everything is noise *)
  let noise = Mining.Dbscan.run { Mining.Dbscan.eps = 0.5; min_pts = 5 } blobs in
  check_bool "all noise" true (Array.for_all (fun l -> l = -1) noise)

let test_kmedoids () =
  let labels = Mining.Kmedoids.run { Mining.Kmedoids.k = 3; max_iter = 50 } blobs in
  check_int "same group 0-1" labels.(0) labels.(1);
  check_int "same group 3-4" labels.(3) labels.(4);
  check_bool "groups differ" true (labels.(0) <> labels.(3));
  check_bool "outlier separate" true (labels.(6) <> labels.(0) && labels.(6) <> labels.(3));
  let medoids = Mining.Kmedoids.medoids { Mining.Kmedoids.k = 3; max_iter = 50 } blobs in
  check_int "three medoids" 3 (Array.length medoids);
  check_bool "k out of range" true
    (try ignore (Mining.Kmedoids.run { Mining.Kmedoids.k = 99; max_iter = 5 } blobs); false
     with Invalid_argument _ -> true);
  (* k = n gives singletons *)
  let singles = Mining.Kmedoids.run { Mining.Kmedoids.k = 7; max_iter = 50 } blobs in
  check_int "singletons" 7 (List.length (List.sort_uniq compare (Array.to_list singles)))

let test_pam () =
  (* PAM recovers the blob structure even where the fast alternation could
     start from a poor centrality-based seed *)
  let labels = Mining.Kmedoids.run_pam { Mining.Kmedoids.k = 3; max_iter = 30 } blobs in
  check_int "same group 0-1" labels.(0) labels.(1);
  check_int "same group 3-4" labels.(3) labels.(4);
  check_bool "groups differ" true (labels.(0) <> labels.(3));
  check_bool "outlier isolated" true
    (labels.(6) <> labels.(0) && labels.(6) <> labels.(3));
  (* PAM never has higher cost than the fast variant *)
  let cost labels_of =
    let l = labels_of { Mining.Kmedoids.k = 3; max_iter = 30 } blobs in
    (* rebuild cost through assignment distances *)
    let per_cluster = Hashtbl.create 8 in
    Array.iteri
      (fun i c ->
        Hashtbl.replace per_cluster c
          (i :: Option.value ~default:[] (Hashtbl.find_opt per_cluster c)))
      l;
    Hashtbl.fold
      (fun _ members acc ->
        (* intra-cluster: cost to best medoid candidate within the cluster *)
        let best =
          List.fold_left
            (fun best cand ->
              Float.min best
                (List.fold_left
                   (fun s i -> s +. Mining.Dist_matrix.get blobs cand i)
                   0.0 members))
            infinity members
        in
        acc +. best)
      per_cluster 0.0
  in
  check_bool "pam cost <= fast cost" true
    (cost Mining.Kmedoids.run_pam <= cost Mining.Kmedoids.run +. 1e-9)

let test_hier () =
  let merges = Mining.Hier.dendrogram blobs in
  check_int "n-1 merges" 6 (List.length merges);
  (* heights are non-decreasing under complete link *)
  let heights = List.map (fun m -> m.Mining.Hier.height) merges in
  check_bool "monotone heights" true
    (List.for_all2 (fun a b -> a <= b) (List.filteri (fun i _ -> i < 5) heights)
       (List.tl heights));
  let labels = Mining.Hier.cut_k 3 blobs in
  check_int "same group 0-1" labels.(0) labels.(1);
  check_bool "three clusters" true
    (List.length (List.sort_uniq compare (Array.to_list labels)) = 3);
  (* complete link on the 4-point chain 0-1-2-3: the last merge joins
     {0,1} and {2,3} at their farthest pair, 0 to 3 *)
  let chain =
    Mining.Dist_matrix.of_fun 4 (fun i j -> Float.abs (float_of_int (i - j)))
  in
  let last = List.nth (Mining.Hier.dendrogram chain) 2 in
  check_float "complete link last merge" 3.0 last.Mining.Hier.height;
  (* a NaN distance never merges: 0-2 merge first, then the fold makes
     the distance to 1 NaN and nothing is left to merge *)
  let nan_01 =
    Mining.Dist_matrix.of_fun 3 (fun i j -> if i = 0 && j = 1 then nan else 1.0)
  in
  Alcotest.(check (array int)) "NaN pair skipped" [| 0; 1; 0 |]
    (Mining.Hier.cut_k 2 nan_01);
  check_bool "only NaN left raises Invariant" true
    (match Mining.Hier.dendrogram nan_01 with
     | _ -> false
     | exception Fault.Error.E (Fault.Error.Invariant _) -> true)

let test_outlier () =
  let flags = Mining.Outlier.run { Mining.Outlier.p = 0.9; d = 5.0 } blobs in
  check_bool "isolated point flagged" true flags.(6);
  check_bool "cluster members not flagged" true (not flags.(0) && not flags.(4));
  check_bool "indices" true (Mining.Outlier.outlier_indices { Mining.Outlier.p = 0.9; d = 5.0 } blobs = [ 6 ]);
  (* d so large nothing is far *)
  let none = Mining.Outlier.run { Mining.Outlier.p = 0.5; d = 1000.0 } blobs in
  check_bool "no outliers" true (Array.for_all not none)

let test_labeling () =
  let a = [| 0; 0; 1; 1; -1 |] and b = [| 5; 5; 2; 2; -1 |] in
  check_bool "same partition" true (Mining.Labeling.same_partition a b);
  let c = [| 0; 1; 1; 0; -1 |] in
  check_bool "different partition" false (Mining.Labeling.same_partition a c);
  check_bool "noise must match" false
    (Mining.Labeling.same_partition [| 0; -1 |] [| 0; 0 |]);
  check_float "ARI identical" 1.0 (Mining.Labeling.adjusted_rand_index a b);
  check_bool "ARI differs" true (Mining.Labeling.adjusted_rand_index a c < 1.0);
  check_float "purity perfect" 1.0 (Mining.Labeling.purity ~truth:[| 0; 0; 1; 1 |] [| 3; 3; 7; 7 |]);
  check_float "purity half" 0.5 (Mining.Labeling.purity ~truth:[| 0; 1; 0; 1 |] [| 0; 0; 1; 1 |]);
  check_bool "canonicalize" true
    (Mining.Labeling.canonicalize [| 7; 7; 3; -1 |] = [| 0; 0; 1; -1 |])

let test_apriori () =
  (* the classic market-basket example *)
  let transactions =
    [ [ "bread"; "milk" ];
      [ "bread"; "diapers"; "beer"; "eggs" ];
      [ "milk"; "diapers"; "beer"; "cola" ];
      [ "bread"; "milk"; "diapers"; "beer" ];
      [ "bread"; "milk"; "diapers"; "cola" ] ]
  in
  let params = { Mining.Apriori.min_support = 0.4; min_confidence = 0.7; max_size = 3 } in
  let frequent = Mining.Apriori.frequent_itemsets params transactions in
  check_bool "bread frequent" true
    (List.mem_assoc [ "bread" ] frequent);
  check_bool "beer+diapers frequent" true
    (List.mem_assoc [ "beer"; "diapers" ] frequent);
  check_bool "eggs infrequent" false (List.mem_assoc [ "eggs" ] frequent);
  (match List.assoc_opt [ "beer"; "diapers" ] frequent with
   | Some s -> Alcotest.(check (float 1e-9)) "support" 0.6 s
   | None -> Alcotest.fail "support lookup");
  let rules = Mining.Apriori.rules params transactions in
  check_bool "beer => diapers" true
    (List.exists
       (fun r ->
         r.Mining.Apriori.antecedent = [ "beer" ]
         && r.Mining.Apriori.consequent = [ "diapers" ]
         && r.Mining.Apriori.confidence = 1.0)
       rules);
  check_bool "no trivial rules" true
    (List.for_all
       (fun r ->
         r.Mining.Apriori.antecedent <> [] && r.Mining.Apriori.consequent <> [])
       rules);
  check_bool "confidences bounded" true
    (List.for_all
       (fun r -> r.Mining.Apriori.confidence >= 0.7 && r.Mining.Apriori.confidence <= 1.0)
       rules);
  (* rules survive an injective item renaming 1:1 — what DET encryption does *)
  let rename i = "enc:" ^ string_of_int (Hashtbl.hash i) in
  let enc_transactions = List.map (List.map rename) transactions in
  let enc_rules = Mining.Apriori.rules params enc_transactions in
  check_bool "rules map 1:1 under renaming" true
    (Mining.Apriori.equal_rule_sets enc_rules
       (List.map (Mining.Apriori.map_items rename) rules));
  Alcotest.check_raises "empty input"
    (Invalid_argument "Apriori: empty transaction list") (fun () ->
      ignore (Mining.Apriori.frequent_itemsets params []))

let test_dtw () =
  let cost a b = Float.abs (a -. b) in
  check_float "identical" 0.0
    (Mining.Dtw.distance ~cost [| 1.0; 2.0; 3.0 |] [| 1.0; 2.0; 3.0 |]);
  (* classic warping: a stretched copy aligns at zero cost *)
  check_float "stretch aligns" 0.0
    (Mining.Dtw.distance ~cost [| 1.0; 2.0; 3.0 |] [| 1.0; 1.0; 2.0; 2.0; 3.0 |]);
  check_float "unit shift" 2.0
    (Mining.Dtw.distance ~cost [| 1.0; 2.0; 3.0 |] [| 2.0; 3.0; 4.0 |]);
  check_float "both empty" 0.0 (Mining.Dtw.distance ~cost [||] [||]);
  check_bool "empty vs nonempty" true
    (Mining.Dtw.distance ~cost [||] [| 1.0 |] = infinity);
  (* the alignment path is monotone and spans both sequences *)
  let p = Mining.Dtw.path ~cost [| 1.0; 5.0; 9.0 |] [| 1.0; 2.0; 9.0; 9.5 |] in
  check_bool "path endpoints" true
    (List.hd p = (0, 0) && List.nth p (List.length p - 1) = (2, 3));
  check_bool "path monotone" true
    (List.for_all2
       (fun (i1, j1) (i2, j2) -> i2 >= i1 && j2 >= j1 && i2 + j2 > i1 + j1)
       (List.filteri (fun i _ -> i < List.length p - 1) p)
       (List.tl p));
  (* normalized is bounded by max pointwise cost *)
  check_bool "normalized bounded" true
    (Mining.Dtw.normalized ~cost [| 0.0; 10.0 |] [| 10.0; 0.0 |] <= 10.0)

let test_silhouette () =
  (* well-separated blobs: high silhouette for the true clustering *)
  let labels = [| 0; 0; 0; 1; 1; 1; -1 |] in
  let s_good = Ablation.Silhouette.score blobs labels in
  check_bool "good clustering scores high" true (s_good > 0.8);
  (* mixing the blobs scores much lower *)
  let bad = [| 0; 1; 0; 1; 0; 1; -1 |] in
  let s_bad = Ablation.Silhouette.score blobs bad in
  check_bool "bad clustering scores lower" true (s_bad < s_good);
  (* noise scores zero and does not crash *)
  let scores = Ablation.Silhouette.point_scores blobs labels in
  Alcotest.(check (float 1e-9)) "noise point is 0" 0.0 scores.(6);
  check_bool "scores bounded" true
    (Array.for_all (fun s -> s >= -1.0 && s <= 1.0) scores);
  (* single cluster: b undefined -> 0 by convention *)
  Alcotest.(check (float 1e-9)) "single cluster" 0.0
    (Ablation.Silhouette.score blobs (Array.make 7 0))

let gen_matrix =
  QCheck.Gen.(
    let* n = int_range 3 12 in
    let* coords = array_size (return n) (float_bound_exclusive 100.0) in
    return
      (Mining.Dist_matrix.of_fun n (fun i j ->
           Float.abs (coords.(i) -. coords.(j)))))

let arb_matrix = QCheck.make gen_matrix

(* the theorem under test everywhere else: identical distance matrices give
   identical mining output, for every algorithm *)
let mining_determinism =
  let arb = arb_matrix in
  [ QCheck.Test.make ~name:"dbscan deterministic" ~count:100 arb (fun m ->
        Mining.Dbscan.run { Mining.Dbscan.eps = 10.0; min_pts = 2 } m
        = Mining.Dbscan.run { Mining.Dbscan.eps = 10.0; min_pts = 2 } m);
    QCheck.Test.make ~name:"kmedoids deterministic" ~count:100 arb (fun m ->
        Mining.Kmedoids.run { Mining.Kmedoids.k = 2; max_iter = 30 } m
        = Mining.Kmedoids.run { Mining.Kmedoids.k = 2; max_iter = 30 } m);
    QCheck.Test.make ~name:"hier deterministic" ~count:100 arb (fun m ->
        Mining.Hier.cut_k 2 m = Mining.Hier.cut_k 2 m);
    QCheck.Test.make ~name:"dbscan labels well-formed" ~count:100 arb (fun m ->
        let labels = Mining.Dbscan.run { Mining.Dbscan.eps = 5.0; min_pts = 2 } m in
        Array.for_all (fun l -> l >= -1) labels);
    QCheck.Test.make ~name:"kmedoids labels in range" ~count:100 arb (fun m ->
        let labels = Mining.Kmedoids.run { Mining.Kmedoids.k = 3; max_iter = 30 } m in
        Array.for_all (fun l -> l >= 0 && l < 3) labels);
    QCheck.Test.make ~name:"ARI of identical labelings is 1" ~count:100 arb
      (fun m ->
        let labels = Mining.Hier.cut_k 2 m in
        Mining.Labeling.adjusted_rand_index labels labels = 1.0) ]

(* ---- DBSCAN over an independent neighbor source and early-abandon
   k-medoids are output-identical to the plain-matrix evaluations ---- *)

(* a no-abandon reference k-medoids: the same algorithm as
   Mining.Kmedoids (Park–Jun init, alternation, PAM swap) with every
   cost computed in full — the oracle the early-abandon production code
   must match label-for-label *)
module Ref_kmedoids = struct
  module DM = Mining.Dist_matrix

  let initial_medoids k m =
    let n = DM.size m in
    let col_sum = Array.init n (fun j ->
        let s = ref 0.0 in
        for i = 0 to n - 1 do s := !s +. DM.get m i j done;
        !s)
    in
    let score = Array.init n (fun j ->
        let s = ref 0.0 in
        for i = 0 to n - 1 do
          if col_sum.(i) > 0.0 then s := !s +. (DM.get m i j /. col_sum.(i))
        done;
        (!s, j))
    in
    Array.sort
      (fun (a, i) (b, j) ->
        match Float.compare a b with 0 -> Int.compare i j | c -> c)
      score;
    Array.init k (fun i -> snd score.(i))

  let assign m medoids =
    Array.init (DM.size m) (fun i ->
        let best = ref 0 and best_d = ref infinity in
        Array.iteri
          (fun c mid ->
            let d = DM.get m i mid in
            if d < !best_d then begin best := c; best_d := d end)
          medoids;
        !best)

  let update_medoids m labels k =
    let n = DM.size m in
    Array.init k (fun c ->
        let members = List.filter (fun i -> labels.(i) = c) (List.init n Fun.id) in
        match members with
        | [] -> -1
        | _ ->
          let best = ref (List.hd members) and best_cost = ref infinity in
          List.iter
            (fun cand ->
              let cost =
                List.fold_left (fun acc i -> acc +. DM.get m cand i) 0.0 members
              in
              if cost < !best_cost then begin best := cand; best_cost := cost end)
            members;
          !best)

  let run_full ~k ~max_iter m =
    let medoids = ref (initial_medoids k m) in
    let labels = ref (assign m !medoids) in
    let continue = ref true and iter = ref 0 in
    while !continue && !iter < max_iter do
      incr iter;
      let medoids' = update_medoids m !labels k in
      Array.iteri (fun c mid -> if mid = -1 then medoids'.(c) <- !medoids.(c)) medoids';
      if medoids' = !medoids then continue := false
      else begin
        medoids := medoids';
        labels := assign m !medoids
      end
    done;
    (!medoids, !labels)

  let run ~k ~max_iter m = snd (run_full ~k ~max_iter m)

  let total_cost m medoids =
    let n = DM.size m in
    let cost = ref 0.0 in
    for i = 0 to n - 1 do
      cost :=
        !cost
        +. Array.fold_left (fun best mid -> Float.min best (DM.get m i mid))
             infinity medoids
    done;
    !cost

  let run_pam ~k ~max_iter m =
    let n = DM.size m in
    let medoids, _ = run_full ~k ~max_iter m in
    let medoids = Array.copy medoids in
    let improved = ref true and sweeps = ref 0 in
    while !improved && !sweeps < max_iter do
      improved := false;
      incr sweeps;
      let current = ref (total_cost m medoids) in
      for c = 0 to k - 1 do
        for cand = 0 to n - 1 do
          if not (Array.exists (( = ) cand) medoids) then begin
            let old = medoids.(c) in
            medoids.(c) <- cand;
            let cost = total_cost m medoids in
            if cost < !current -. 1e-12 then begin
              current := cost;
              improved := true
            end
            else medoids.(c) <- old
          end
        done
      done
    done;
    assign m medoids
end

let pr5_identity =
  let arb = arb_matrix in
  let arb_eps = QCheck.pair arb_matrix (QCheck.float_range 0.5 60.0) in
  [ QCheck.Test.make ~name:"dbscan brute range = dbscan matrix" ~count:150
      arb_eps
      (fun (m, eps) ->
        let n = Mining.Dist_matrix.size m in
        (* the same [d <= eps] decision, filtered ascending *)
        let range i =
          List.filter
            (fun j -> j <> i && Mining.Dist_matrix.get m i j <= eps)
            (List.init n Fun.id)
        in
        Mining.Dbscan.run_index ~min_pts:2 { Mining.Dbscan.ri_n = n; range }
        = Mining.Dbscan.run { Mining.Dbscan.eps; min_pts = 2 } m);
    QCheck.Test.make ~name:"kmedoids abandon = full reference" ~count:150 arb
      (fun m ->
        Mining.Kmedoids.run { Mining.Kmedoids.k = 2; max_iter = 30 } m
        = Ref_kmedoids.run ~k:2 ~max_iter:30 m);
    QCheck.Test.make ~name:"pam abandon = full reference" ~count:100 arb
      (fun m ->
        Mining.Kmedoids.run_pam { Mining.Kmedoids.k = 2; max_iter = 30 } m
        = Ref_kmedoids.run_pam ~k:2 ~max_iter:30 m) ]

(* random symmetric neighborhoods: the DBSCAN core labels as the
   Queue-based [Reference.dbscan_expand] does, asks [range] in the same
   order, and scans every point exactly once *)
let dbscan_reference =
  let gen =
    QCheck.Gen.(quad (int_bound 60) (int_bound 6) (float_bound_inclusive 0.4) int)
  in
  let print (n, min_pts, p, seed) =
    Printf.sprintf "n=%d min_pts=%d p=%g seed=%d" n min_pts p seed
  in
  [ QCheck.Test.make ~name:"run_index = Queue reference, n scans" ~count:300
      (QCheck.make ~print gen)
      (fun (n, min_pts, p, seed) ->
        let bytes =
          Crypto.Drbg.generate (Crypto.Drbg.create ~seed:(string_of_int seed)) (n * n)
        in
        let adj = Array.make_matrix n n false in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            let e = float_of_int (Char.code bytes.[(i * n) + j]) < p *. 256.0 in
            adj.(i).(j) <- e;
            adj.(j).(i) <- e
          done
        done;
        let calls = ref [] in
        let range i =
          calls := i :: !calls;
          List.filter (fun j -> adj.(i).(j)) (List.init n Fun.id)
        in
        let want = Reference.dbscan_expand ~n ~min_pts ~range in
        let want_calls = !calls in
        calls := [];
        let scans = Obs.Registry.counter "kitdpe.mining.dbscan.neighbor_scans" in
        let was = Obs.is_enabled () in
        Obs.set_enabled true;
        let s0 = Obs.Metric.value scans in
        let got =
          Fun.protect ~finally:(fun () -> Obs.set_enabled was) (fun () ->
              Mining.Dbscan.run_index ~min_pts { Mining.Dbscan.ri_n = n; range })
        in
        got = want && !calls = want_calls && Obs.Metric.value scans - s0 = n) ]

(* the list-based complete link that Mining.Hier replaced, kept as the
   reference it must match merge for merge and label for label: every
   merge rescans every cluster pair, each pair's distance the maximum
   over a list of all its member-pair distances *)
module Ref_hier = struct
  type cluster = { id : int; members : int list }

  let cluster_distance m ca cb =
    List.fold_left Float.max neg_infinity
      (List.concat_map
         (fun i -> List.map (fun j -> Mining.Dist_matrix.get m i j) cb.members)
         ca.members)

  let merges m ~stop =
    let n = Mining.Dist_matrix.size m in
    let clusters = ref (List.init n (fun i -> { id = i; members = [ i ] })) in
    let next_id = ref n in
    let out = ref [] in
    let continue = ref true in
    while !continue && List.length !clusters > 1 do
      (* the closest pair; ties break on (smaller left id, smaller right
         id) *)
      let best = ref None in
      let rec scan = function
        | [] | [ _ ] -> ()
        | ca :: rest ->
          List.iter
            (fun cb ->
              let d = cluster_distance m ca cb in
              let a, b = if ca.id < cb.id then (ca, cb) else (cb, ca) in
              match !best with
              | None -> best := Some (d, a, b)
              | Some (bd, ba, bb) ->
                if d < bd
                   || d = bd && (a.id < ba.id || (a.id = ba.id && b.id < bb.id))
                then best := Some (d, a, b))
            rest;
          scan rest
      in
      scan !clusters;
      match !best with
      | None -> continue := false
      | Some (d, a, b) ->
        if stop ~remaining:(List.length !clusters) then continue := false
        else begin
          let merged = { id = !next_id; members = a.members @ b.members } in
          incr next_id;
          clusters :=
            merged :: List.filter (fun c -> c.id <> a.id && c.id <> b.id) !clusters;
          out := { Mining.Hier.left = a.id; right = b.id; height = d } :: !out
        end
    done;
    (List.rev !out, !clusters)

  let dendrogram m = fst (merges m ~stop:(fun ~remaining:_ -> false))

  (* clusters labelled by their smallest member *)
  let cut_k k m =
    let n = Mining.Dist_matrix.size m in
    let _, clusters = merges m ~stop:(fun ~remaining -> remaining <= k) in
    let first c = List.fold_left min max_int c.members in
    let sorted = List.sort (fun a b -> Int.compare (first a) (first b)) clusters in
    let labels = Array.make n (-1) in
    List.iteri (fun idx c -> List.iter (fun i -> labels.(i) <- idx) c.members) sorted;
    labels
end

(* a random matrix with n <= 200 and a cut k in [1, n]: values in
   {0, 1} or {0 .. 3}, where most pairs tie, or uniform floats *)
let gen_hier_case =
  QCheck.Gen.(
    let* n = int_range 1 200 in
    let* name, value =
      oneofl
        [ ("{0,1}", map float_of_int (int_bound 1));
          ("{0..3}", map float_of_int (int_bound 3));
          ("uniform", float_bound_exclusive 1.0) ]
    in
    let* vals = array_size (return (n * n)) value in
    let* k = int_range 1 n in
    return (name, Mining.Dist_matrix.of_fun n (fun i j -> vals.((i * n) + j)), k))

let arb_hier_case =
  QCheck.make
    ~print:(fun (name, m, k) ->
      Printf.sprintf "%s n=%d k=%d" name (Mining.Dist_matrix.size m) k)
    gen_hier_case

let merge_bits l =
  List.map
    (fun { Mining.Hier.left; right; height } ->
      (left, right, Int64.bits_of_float height))
    l

(* the merges and the [hier.cluster_dists] reads of [f ()] *)
let hier_counted f =
  let merges = Obs.Registry.counter "kitdpe.mining.hier.merges" in
  let dists = Obs.Registry.counter "kitdpe.mining.hier.cluster_dists" in
  let was = Obs.is_enabled () in
  Obs.set_enabled true;
  let m0 = Obs.Metric.value merges and d0 = Obs.Metric.value dists in
  let x = Fun.protect ~finally:(fun () -> Obs.set_enabled was) f in
  (x, Obs.Metric.value merges - m0, Obs.Metric.value dists - d0)

(* the reads of the all-pairs scan that the neighbour cache replaced:
   r(r-1)/2 per merge, r = n down to k + 1 clusters alive *)
let scan_reads n k =
  let s = ref 0 in
  for r = k + 1 to n do
    s := !s + (r * (r - 1) / 2)
  done;
  !s

(* The dendrogram's reads never exceed the scan's: after a merge from r
   clusters, each row but the merged one reads its one candidate (the
   merged cluster, which has the largest id) or every cluster of larger
   id, so each pair of the r - 1 left at most once, (r-1)(r-2)/2 in all;
   with the initial n(n-1)/2 that sums to the scan's reads down to
   k = 1. *)
let hier_reference =
  [ QCheck.Test.make ~name:"hier = list reference, input unchanged" ~count:40
      arb_hier_case
      (fun (_, m, k) ->
        let n = Mining.Dist_matrix.size m in
        let before = Mining.Dist_matrix.prefix m n in
        let dendrogram, _, reads = hier_counted (fun () -> Mining.Hier.dendrogram m) in
        merge_bits dendrogram = merge_bits (Ref_hier.dendrogram m)
        && reads <= scan_reads n 1
        && Mining.Hier.cut_k k m = Ref_hier.cut_k k m
        && Mining.Dist_matrix.max_abs_diff m before = 0.0) ]

(* [cluster_dists] counts the reads that find neighbours: the initial
   row scans, n(n-1)/2, then per merge the rescan of each row whose
   neighbour was merged away and one candidate read for every other row
   but the merged one *)
let test_hier_counters () =
  let n = 30 and k = 4 in
  let cut value =
    hier_counted (fun () -> ignore (Mining.Hier.cut_k k (Mining.Dist_matrix.of_fun n value)))
  in
  (* All distances equal: every row's neighbour is the next larger id
     and each merge joins the two smallest ids, so no other row pointed
     at them and none is rescanned.  The merge from r clusters makes
     r - 2 candidate reads:
     n(n-1)/2 + sum_{r=k+1..n} (r-2) = n(n-1)/2 + (n-1)(n-2)/2 - (k-1)(k-2)/2
     = 435 + 406 - 3 = 838. *)
  let closed = (n * (n - 1) / 2) + ((n - 1) * (n - 2) / 2) - ((k - 1) * (k - 2) / 2) in
  check_int "closed form" 838 closed;
  let (), merges, reads = cut (fun _ _ -> 1.0) in
  check_int "equal: merges = n - k" (n - k) merges;
  check_int "equal: cluster_dists" closed reads;
  let (), merges, reads = cut (fun i j -> float_of_int (((i * 7) + (j * 13)) mod 5)) in
  check_int "mod 5: merges = n - k" (n - k) merges;
  check_int "mod 5: cluster_dists" 838 reads

(* two larger dendrograms from a fixed Drbg seed, against the scan's
   r(r-1)/2 per merge.  At n = 300 a 2% gate would leave no room: the
   initial scan and one candidate read per row and merge alone are
   n(n-1)/2 + (n-1)(n-2)/2 = 89,401 reads, 1.99% of the scan's
   4,499,950, and ties make rows rescan, so that gate is 3%. *)
let test_hier_cache_gates () =
  let drbg = Crypto.Drbg.create ~seed:"kitdpe.test.hier" in
  let gate name ~n ~pct value =
    let m = Mining.Dist_matrix.of_fun n value in
    let _, merges, reads = hier_counted (fun () -> Mining.Hier.dendrogram m) in
    check_int (name ^ ": merges") (n - 1) merges;
    check_bool
      (Printf.sprintf "%s: %d reads < %d%% of the scan's %d" name reads pct
         (scan_reads n 1))
      true
      (reads * 100 < pct * scan_reads n 1)
  in
  (* one byte per (i, j), two bits of it: most pairs tie *)
  let n = 300 in
  let bytes = Crypto.Drbg.generate drbg (n * n) in
  gate "n=300 {0..3}" ~n ~pct:3 (fun i j ->
      float_of_int (Char.code bytes.[(i * n) + j] land 3));
  (* four bytes per pair i < j, uniform in [0, 1) *)
  let n = 1024 in
  let bytes = Crypto.Drbg.generate drbg (2 * n * (n - 1)) in
  let cell i j = (i * ((2 * n) - i - 1) / 2) + (j - i - 1) in
  gate "n=1024 uniform" ~n ~pct:2 (fun i j ->
      (Int32.to_float (String.get_int32_le bytes (4 * cell i j)) /. 4294967296.0) +. 0.5)

(* complete link checks the request deadline once per merge: inside an
   already-expired deadline it stops with the typed error instead of
   finishing the agglomeration; without a deadline the labels are the
   plain run's *)
let test_hier_deadline () =
  check_bool "expired deadline raises Deadline_exceeded" true
    (match
       Parallel.Pool.with_deadline ~deadline_ns:(Obs.now_ns () - 1) (fun () ->
           Mining.Hier.cut_k 3 blobs)
     with
     | _ -> false
     | exception Fault.Error.E (Fault.Error.Deadline_exceeded _) -> true);
  Alcotest.(check (array int)) "no deadline: labels unchanged"
    [| 0; 0; 0; 1; 1; 1; 2 |] (Mining.Hier.cut_k 3 blobs)

let () =
  Alcotest.run "mining"
    [ ("matrix", [ Alcotest.test_case "dist matrix" `Quick test_dist_matrix ]);
      ("dbscan",
       Alcotest.test_case "dbscan" `Quick test_dbscan
       :: List.map (fun t -> QCheck_alcotest.to_alcotest t) dbscan_reference);
      ("kmedoids",
       [ Alcotest.test_case "kmedoids" `Quick test_kmedoids;
         Alcotest.test_case "pam swap phase" `Quick test_pam ]);
      ("hierarchical",
       [ Alcotest.test_case "complete link" `Quick test_hier;
         Alcotest.test_case "deadline per merge" `Quick test_hier_deadline;
         Alcotest.test_case "scan counters" `Quick test_hier_counters;
         Alcotest.test_case "cache read gates" `Quick test_hier_cache_gates ]);
      ("outliers", [ Alcotest.test_case "knorr-ng" `Quick test_outlier ]);
      ("labeling", [ Alcotest.test_case "partition comparison" `Quick test_labeling ]);
      ("apriori", [ Alcotest.test_case "association rules" `Quick test_apriori ]);
      ("silhouette", [ Alcotest.test_case "cluster quality" `Quick test_silhouette ]);
      ("dtw", [ Alcotest.test_case "dynamic time warping" `Quick test_dtw ]);
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest t) mining_determinism);
      ("pr5 identity", List.map (fun t -> QCheck_alcotest.to_alcotest t) pr5_identity);
      ("hier reference", List.map (fun t -> QCheck_alcotest.to_alcotest t) hier_reference) ]

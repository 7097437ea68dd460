(* Indexes (lib/index): exactness against brute force, BK-tree
   determinism across pool sizes, golden trees and candidate totals,
   engine equivalence for DBSCAN, and the ["index.build"] fault point. *)

module F = Distance.Features
module M = Distance.Measure
module W = Workload.Gen_query

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_labels = Alcotest.(check (array int))

let with_pool domains f =
  let p = Parallel.Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown p) (fun () -> f p)

let pool_sizes = [ 1; 2; 4 ]

let gen_log ~n ~seed m =
  W.skyserver_log
    { W.n; templates = 4; seed; caps = W.caps_for_measure m }

let feats_of ~n ~seed m = F.build (Array.of_list (gen_log ~n ~seed m))

(* every indexed measure, with a radius that plants clusters *)
let measures = [ (M.Token, 0.4); (M.Structure, 0.4); (M.Edit, 0.35); (M.Clause, 0.4) ]

(* the reference answer: the brute-force scan over the exact predicate,
   ascending — precisely what the trees must reproduce *)
let brute sp ~eps q =
  let within_q = Index.Space.within sp ~eps q in
  let acc = ref [] in
  for j = Index.Space.size sp - 1 downto 0 do
    if j <> q && within_q j then acc := j :: !acc
  done;
  !acc

(* ---- eps-range exactness ---- *)

let test_vp_range_exact () =
  List.iter
    (fun (m, eps) ->
      let name = M.to_string m in
      let feats = feats_of ~n:90 ~seed:("vp-" ^ name) m in
      let sp = Index.Space.flat m feats in
      List.iter
        (fun domains ->
          with_pool domains (fun pool ->
              let t = Index.Vp_tree.build ~pool ~seed:"t" sp in
              for q = 0 to Index.Space.size sp - 1 do
                (* a couple of radii per point: the planted-cluster one
                   and a tight near-duplicate one *)
                List.iter
                  (fun eps ->
                    Alcotest.(check (list int))
                      (Printf.sprintf "%s d%d q%d eps%g" name domains q eps)
                      (brute sp ~eps q)
                      (Index.Vp_tree.range t ~eps q))
                  [ eps; 0.05 ]
              done))
        pool_sizes)
    measures

(* The prefix filter against brute force on random logs: radii at and
   beyond the edges of [0, 1] (nan included).  Every log ends with a
   duplicate of its first query and with fixed queries: an empty
   structure set ([SELECT *] from nothing), an empty clause projection
   (no select list), and projections that differ by one attribute under
   one group-by, whose clause distances (0.0875, 0.2625) are within 0.1
   and 0.3 only through the projection radius [eps * W / w_projection]. *)
let prop_fixed =
  let module A = Sqlir.Ast in
  [ A.simple_query; { A.simple_query with A.select = [] } ]
  @ List.map
      (fun sql -> Result.get_ok (Sqlir.Parser.parse_result sql))
      [ "SELECT a, b, c, d FROM t GROUP BY a";
        "SELECT a, b, c FROM t GROUP BY a";
        "SELECT a, e FROM t GROUP BY a" ]

let prop_pool =
  List.concat_map
    (fun m -> gen_log ~n:10 ~seed:"prop" m)
    [ M.Token; M.Structure; M.Clause ]
  |> Array.of_list

let prop_eps = [ -0.1; 0.0; 1e-12; 0.1; 0.3; 1.0 -. 1e-9; 1.0; 1.5; Float.nan ]

let prop_prefix_exact =
  QCheck.Test.make ~name:"prefix = brute force" ~count:60
    QCheck.(list_of_size Gen.(1 -- 40) (int_bound (Array.length prop_pool - 1)))
    (fun picks ->
      let drawn = List.map (Array.get prop_pool) picks in
      let log = Array.of_list (drawn @ [ List.hd drawn ] @ prop_fixed) in
      let feats = F.build log in
      List.for_all
        (fun m ->
          let sp = Index.Space.flat m feats in
          let t = Index.Vp_tree.build ~seed:"p" sp in
          List.for_all
            (fun eps ->
              List.for_all
                (fun q -> Index.Vp_tree.range t ~eps q = brute sp ~eps q)
                (List.init (Array.length log) Fun.id))
            prop_eps)
        [ M.Token; M.Structure; M.Clause ])

(* An [of_measure] space indexes one representative per class.  Every
   answer is still the brute-force one over all points, asked in any
   order and more than once, and a pass that asks each point once runs
   exactly one index query per class. *)
let test_grouped_range () =
  List.iter
    (fun (m, eps) ->
      let name = M.to_string m in
      let base = gen_log ~n:30 ~seed:("grouped-" ^ name) m in
      let log = Array.of_list (base @ List.rev base @ [ List.hd base ]) in
      let n = Array.length log in
      let feats = F.build log in
      let flat = Index.Space.flat m feats in
      let sp = Option.get (Index.Space.of_measure m feats) in
      let d = Array.length (Option.get (Index.Space.classes sp)).F.reps in
      let t = Index.Vp_tree.build ~seed:"g" sp in
      let queries = Obs.Registry.counter "kitdpe.index.queries" in
      let was = Obs.is_enabled () in
      Obs.set_enabled true;
      Fun.protect ~finally:(fun () -> Obs.set_enabled was) (fun () ->
          List.iter
            (fun eps ->
              let ask q =
                Alcotest.(check (list int))
                  (Printf.sprintf "%s q%d eps%g" name q eps)
                  (brute flat ~eps q) (Index.Vp_tree.range t ~eps q)
              in
              let before = Obs.Metric.value queries in
              for q = 0 to n - 1 do ask q done;
              check_int
                (Printf.sprintf "%s eps%g: one query per class" name eps)
                d
                (Obs.Metric.value queries - before);
              for q = n - 1 downto 0 do ask q; ask q done)
            [ eps; 0.0; -0.1; Float.nan ]))
    measures

let test_bk_range_exact () =
  let feats = feats_of ~n:90 ~seed:"bk" M.Edit in
  let sp = Index.Space.flat M.Edit feats in
  List.iter
    (fun domains ->
      with_pool domains (fun pool ->
          let t = Index.Bk_tree.build ~pool ~seed:"t" sp in
          for q = 0 to Index.Space.size sp - 1 do
            List.iter
              (fun eps ->
                Alcotest.(check (list int))
                  (Printf.sprintf "bk d%d q%d eps%g" domains q eps)
                  (brute sp ~eps q)
                  (Index.Bk_tree.range t ~eps q))
              [ 0.35; 0.05 ]
          done))
    pool_sizes

let test_bk_requires_edit () =
  let feats = feats_of ~n:8 ~seed:"bk-kind" M.Token in
  let sp = Index.Space.flat M.Token feats in
  check_bool "non-edit rejected" true
    (match Index.Bk_tree.build ~seed:"t" sp with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ---- determinism: the BK-tree, the one index built on the pool ---- *)

let edit_space ~n ~seed =
  Index.Space.flat M.Edit (feats_of ~n ~seed M.Edit)

let test_fingerprint_pool_independent () =
  (* n above the BK-tree's parallel cutoffs, so wider pools do run the
     distance batches and subtree builds *)
  let sp = edit_space ~n:800 ~seed:"fp-edit" in
  let fps =
    List.map
      (fun domains ->
        with_pool domains (fun pool ->
            Index.Bk_tree.fingerprint (Index.Bk_tree.build ~pool ~seed:"t" sp)))
      pool_sizes
  in
  List.iter
    (fun fp -> check_string "bk fingerprint" (List.hd fps) fp)
    (List.tl fps)

let test_seed_changes_tree () =
  let sp = edit_space ~n:80 ~seed:"seeded" in
  let fp seed = Index.Bk_tree.fingerprint (Index.Bk_tree.build ~seed sp) in
  check_bool "different seeds, different pivots" true (fp "a" <> fp "b");
  check_string "same seed, same tree" (fp "a") (fp "a")

(* ---- golden trees and candidate totals ---- *)

(* The fixed 300-query log per measure the golden rows are taken on. *)
let golden_space m =
  let log =
    W.skyserver_log
      { W.n = 300; templates = 6; seed = "fp"; caps = W.caps_for_measure m }
  in
  Index.Space.flat m (F.build (Array.of_list log))

(* the probe total of an eps 0.1 range query from every point *)
let probe_total range_stats sp =
  let total = ref 0 in
  for q = 0 to Index.Space.size sp - 1 do
    total := !total + (snd (range_stats ~eps:0.1 q)).Index.Vp_tree.probes
  done;
  !total

(* Edit: the SHA-256 of the BK-tree's fingerprint and its probe total.
   Recorded from the reference implementation: a refactor of the tree or
   the feature table must leave every row unchanged.  The "vp" row goes
   through the entry point [Vp_tree.build], which hands edit to the
   BK-tree, so it pins the very tree "bk edit" does.  Token, structure
   and clause: the candidate total of the prefix filter through the same
   entry point (a VP-tree probed 35,993, 35,064 and 50,152 times). *)
let golden_trees =
  [ ("vp", "edit", M.Edit, 14_922,
     Some "c3407c0ef2f91ae6619c37c32f93d957c8a85e57bbb8b4c26d2a495e16d2524a");
    ("bk", "edit", M.Edit, 14_922,
     Some "c3407c0ef2f91ae6619c37c32f93d957c8a85e57bbb8b4c26d2a495e16d2524a");
    ("vp", "token", M.Token, 9_175, None);
    ("vp", "structure", M.Structure, 14_852, None);
    ("vp", "clause", M.Clause, 32_894, None) ]

let test_golden_trees () =
  List.iter
    (fun (tree, name, m, probes, digest) ->
      let sp = golden_space m in
      let label = tree ^ " " ^ name in
      let range_stats =
        match tree with
        | "vp" -> Index.Vp_tree.range_stats (Index.Vp_tree.build ~seed:"s" sp)
        | _ -> Index.Bk_tree.range_stats (Index.Bk_tree.build ~seed:"s" sp)
      in
      Option.iter
        (fun digest ->
          check_string (label ^ " fingerprint sha256") digest
            (Crypto.Sha256.hex
               (Index.Bk_tree.fingerprint (Index.Bk_tree.build ~seed:"s" sp))))
        digest;
      check_int (label ^ " probes at eps 0.1") probes (probe_total range_stats sp))
    golden_trees

(* the registry's view of the same work: the probes a token query log
   costs, read from [kitdpe.index.probes], at most half the VP-tree's *)
let test_probes_counter () =
  let sp = golden_space M.Token in
  let t = Index.Vp_tree.build ~seed:"s" sp in
  let was = Obs.is_enabled () in
  Obs.set_enabled true;
  Obs.Registry.reset ();
  let probes =
    Fun.protect ~finally:(fun () -> Obs.set_enabled was) (fun () ->
        for q = 0 to Index.Space.size sp - 1 do
          ignore (Index.Vp_tree.range t ~eps:0.1 q)
        done;
        Obs.Metric.value (Obs.Registry.counter "kitdpe.index.probes"))
  in
  check_bool
    (Printf.sprintf "kitdpe.index.probes %d <= 17996" probes)
    true (probes <= 17_996);
  check_int "counter = range_stats total"
    (probe_total (Index.Vp_tree.range_stats t) sp) probes

(* ---- DBSCAN engine equivalence ---- *)

let test_dbscan_engines_identical () =
  List.iter
    (fun (m, eps) ->
      let name = M.to_string m in
      let log = gen_log ~n:70 ~seed:("eng-" ^ name) m in
      let feats = F.build (Array.of_list log) in
      let sp = Index.Space.flat m feats in
      let dm = M.matrix M.default_ctx m log in
      let via_matrix = Mining.Dbscan.run { Mining.Dbscan.eps; min_pts = 3 } dm in
      let tree = Index.Vp_tree.build ~seed:"t" sp in
      let via_index =
        Mining.Dbscan.run_index ~min_pts:3
          { Mining.Dbscan.ri_n = Index.Space.size sp;
            range = (fun i -> Index.Vp_tree.range tree ~eps i) }
      in
      check_labels (Printf.sprintf "%s eps=%g index = matrix" name eps)
        via_matrix via_index)
    (* an eps whose edit band eps*n exceeds max_int: every pair is
       within, so all points form one cluster *)
    (measures @ [ (M.Edit, 1e20) ])

(* ---- feature table size ---- *)

(* the edit table holds no per-query Myers pattern table: those take
   [alphabet] words each, and the alphabet grows with the log, so they
   made the table grow superlinearly in n *)
let test_features_linear () =
  let live_words n =
    let log = Array.of_list (gen_log ~n ~seed:"footprint" M.Token) in
    Gc.full_major ();
    let before = (Gc.stat ()).live_words in
    let t = Fault.Error.get_ok (F.table_r F.Edit_tokens (F.build log)) in
    Gc.full_major ();
    let words = (Gc.stat ()).live_words - before in
    ignore (Sys.opaque_identity (t, log));
    words
  in
  let w1 = live_words 300 and w2 = live_words 600 in
  check_bool
    (Printf.sprintf "n 300 -> 600: %d -> %d words, at most 2.2x" w1 w2)
    true
    (float_of_int w2 <= 2.2 *. float_of_int w1)

(* ---- faults ---- *)

let with_faults spec f =
  (match Fault.Inject.arm_spec spec with
   | Ok () -> ()
   | Error m -> Alcotest.fail ("arm_spec rejected " ^ spec ^ ": " ^ m));
  Fun.protect ~finally:Fault.Inject.disarm_all f

(* an armed build raises at index.build before any tree work — there is
   no partial tree over a healthy subset — and a disarmed build is
   bit-identical to the baseline *)
let test_build_r_contains () =
  let feats = feats_of ~n:40 ~seed:"faulty" M.Token in
  let sp = Index.Space.flat M.Token feats in
  let answers () =
    let t = Index.Vp_tree.build ~seed:"t" sp in
    List.init (Index.Space.size sp) (Index.Vp_tree.range t ~eps:0.4)
  in
  let baseline = answers () in
  with_faults "index.build=every:5" (fun () ->
      check_bool "build raises Injected at index.build" true
        (match Index.Vp_tree.build ~seed:"t" sp with
         | _ -> false
         | exception Fault.Error.E (Fault.Error.Injected { point; _ }) ->
           point = "index.build"));
  check_bool "answers restored" true (answers () = baseline)

let () =
  Alcotest.run "index"
    [ ( "range",
        [ Alcotest.test_case "vp = brute force" `Quick test_vp_range_exact;
          QCheck_alcotest.to_alcotest prop_prefix_exact;
          Alcotest.test_case "bk = brute force" `Quick test_bk_range_exact;
          Alcotest.test_case "bk needs edit" `Quick test_bk_requires_edit;
          Alcotest.test_case "grouped = brute force" `Quick test_grouped_range ] );
      ( "determinism",
        [ Alcotest.test_case "fingerprint pool-independent" `Quick
            test_fingerprint_pool_independent;
          Alcotest.test_case "seed changes tree" `Quick test_seed_changes_tree;
          Alcotest.test_case "golden trees" `Quick test_golden_trees;
          Alcotest.test_case "probes counter" `Quick test_probes_counter ] );
      ( "dbscan",
        [ Alcotest.test_case "engines identical" `Quick test_dbscan_engines_identical ] );
      ( "faults",
        [ Alcotest.test_case "build_r contains" `Quick test_build_r_contains ] );
      ( "features",
        [ Alcotest.test_case "table linear in n" `Quick test_features_linear ] ) ]

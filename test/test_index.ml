(* Metric indexes (lib/index): exactness against brute force, structural
   determinism across pool sizes, golden trees, engine equivalence for
   DBSCAN, and the ["index.build"] fault point. *)

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

let kinds =
  [ ("token", Index.Space.Token, 0.4);
    ("structure", Index.Space.Structure, 0.4);
    ("edit", Index.Space.Edit, 0.35);
    ("clause", Index.Space.Clause, 0.4) ]

let measure_of_kind = function
  | Index.Space.Token -> M.Token
  | Index.Space.Structure -> M.Structure
  | Index.Space.Edit -> M.Edit
  | Index.Space.Clause -> M.Clause

(* the reference answer: the brute-force scan over the exact predicate,
   ascending — precisely what the trees must reproduce *)
let brute sp ~eps q =
  let acc = ref [] in
  for j = Index.Space.size sp - 1 downto 0 do
    if j <> q && Index.Space.within sp ~eps q j then acc := j :: !acc
  done;
  !acc

(* ---- eps-range exactness ---- *)

let test_vp_range_exact () =
  List.iter
    (fun (name, kind, eps) ->
      let m = measure_of_kind kind in
      let feats = feats_of ~n:90 ~seed:("vp-" ^ name) m in
      let sp = Index.Space.of_kind kind feats in
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
    kinds

let test_bk_range_exact () =
  let feats = feats_of ~n:90 ~seed:"bk" M.Edit in
  let sp = Index.Space.of_kind Index.Space.Edit feats in
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
  let sp = Index.Space.of_kind Index.Space.Token feats in
  check_bool "non-edit rejected" true
    (match Index.Bk_tree.build ~seed:"t" sp with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ---- determinism: bit-identical trees for every pool size ---- *)

let test_fingerprint_pool_independent () =
  List.iter
    (fun (name, kind, _) ->
      let m = measure_of_kind kind in
      let feats = feats_of ~n:120 ~seed:("fp-" ^ name) m in
      let sp = Index.Space.of_kind kind feats in
      let fps =
        List.map
          (fun domains ->
            with_pool domains (fun pool ->
                Index.Vp_tree.fingerprint (Index.Vp_tree.build ~pool ~seed:"t" sp)))
          pool_sizes
      in
      List.iter
        (fun fp -> check_string (name ^ " vp fingerprint") (List.hd fps) fp)
        (List.tl fps);
      if Index.Space.is_int_metric sp then begin
        let fps =
          List.map
            (fun domains ->
              with_pool domains (fun pool ->
                  Index.Bk_tree.fingerprint (Index.Bk_tree.build ~pool ~seed:"t" sp)))
            pool_sizes
        in
        List.iter
          (fun fp -> check_string (name ^ " bk fingerprint") (List.hd fps) fp)
          (List.tl fps)
      end)
    kinds

let test_seed_changes_tree () =
  let feats = feats_of ~n:80 ~seed:"seeded" M.Token in
  let sp = Index.Space.of_kind Index.Space.Token feats in
  let fp seed = Index.Vp_tree.fingerprint (Index.Vp_tree.build ~seed sp) in
  check_bool "different seeds, different vantages" true (fp "a" <> fp "b");
  check_string "same seed, same tree" (fp "a") (fp "a")

(* ---- golden trees: pinned structure and pruning ---- *)

(* SHA-256 of each tree's fingerprint and the probe total of an eps 0.1
   range query from every point, on a fixed 300-query log per measure.
   Recorded from the reference implementation: a refactor of the trees
   or the feature table must leave every row unchanged.  The "vp" rows
   go through the entry point [Vp_tree.build], which hands edit to the
   BK-tree, so "vp edit" pins the very tree "bk edit" does. *)
let golden_trees =
  [ ("vp", "token", M.Token, 35_993,
     "139793376bbb604133666f2b28a46ef0a4f91c33eb2458738a90c277265b3c98");
    ("vp", "edit", M.Edit, 14_922,
     "c3407c0ef2f91ae6619c37c32f93d957c8a85e57bbb8b4c26d2a495e16d2524a");
    ("vp", "structure", M.Structure, 35_064,
     "b1607bf2ace5cb8c4510c90d6ce716215bf6819790df10882027aa87611dcc84");
    ("vp", "clause", M.Clause, 50_152,
     "e6dd5e85f1f81d2e460dd4531efe645ce4a3fe181bc58044d2a8619ddc3421da");
    ("bk", "edit", M.Edit, 14_922,
     "c3407c0ef2f91ae6619c37c32f93d957c8a85e57bbb8b4c26d2a495e16d2524a") ]

let test_golden_trees () =
  List.iter
    (fun (tree, name, m, probes, digest) ->
      let log =
        W.skyserver_log
          { W.n = 300; templates = 6; seed = "fp"; caps = W.caps_for_measure m }
      in
      let sp =
        Index.Space.of_kind
          (Option.get (Index.Space.kind_of_measure m))
          (F.build (Array.of_list log))
      in
      let fp, range_stats =
        match tree with
        | "vp" ->
          let t = Index.Vp_tree.build ~seed:"s" sp in
          (Index.Vp_tree.fingerprint t,
           fun q -> (snd (Index.Vp_tree.range_stats t ~eps:0.1 q)).probes)
        | _ ->
          let t = Index.Bk_tree.build ~seed:"s" sp in
          (Index.Bk_tree.fingerprint t,
           fun q -> (snd (Index.Bk_tree.range_stats t ~eps:0.1 q)).probes)
      in
      let total = ref 0 in
      for q = 0 to Index.Space.size sp - 1 do
        total := !total + range_stats q
      done;
      let label = tree ^ " " ^ name in
      check_string (label ^ " fingerprint sha256") digest (Crypto.Sha256.hex fp);
      check_int (label ^ " probes at eps 0.1") probes !total)
    golden_trees

(* ---- DBSCAN engine equivalence ---- *)

let test_dbscan_engines_identical () =
  List.iter
    (fun (name, kind, eps) ->
      let m = measure_of_kind kind in
      let log = gen_log ~n:70 ~seed:("eng-" ^ name) m in
      let feats = F.build (Array.of_list log) in
      let sp = Index.Space.of_kind kind feats in
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
    (kinds @ [ ("edit", Index.Space.Edit, 1e20) ])

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
  let sp = Index.Space.of_kind Index.Space.Token feats in
  let baseline = Index.Vp_tree.fingerprint (Index.Vp_tree.build ~seed:"t" sp) in
  with_faults "index.build=every:5" (fun () ->
      check_bool "build raises Injected at index.build" true
        (match Index.Vp_tree.build ~seed:"t" sp with
         | _ -> false
         | exception Fault.Error.E (Fault.Error.Injected { point; _ }) ->
           point = "index.build"));
  check_string "fingerprint restored" baseline
    (Index.Vp_tree.fingerprint (Index.Vp_tree.build ~seed:"t" sp))

let () =
  Alcotest.run "index"
    [ ( "range",
        [ Alcotest.test_case "vp = brute force" `Quick test_vp_range_exact;
          Alcotest.test_case "bk = brute force" `Quick test_bk_range_exact;
          Alcotest.test_case "bk needs edit" `Quick test_bk_requires_edit ] );
      ( "determinism",
        [ Alcotest.test_case "fingerprint pool-independent" `Quick
            test_fingerprint_pool_independent;
          Alcotest.test_case "seed changes tree" `Quick test_seed_changes_tree;
          Alcotest.test_case "golden trees" `Quick test_golden_trees ] );
      ( "dbscan",
        [ Alcotest.test_case "engines identical" `Quick test_dbscan_engines_identical ] );
      ( "faults",
        [ Alcotest.test_case "build_r contains" `Quick test_build_r_contains ] ) ]

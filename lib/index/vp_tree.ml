(* The index entry point: edit to the BK-tree, the Jaccard family to the
   prefix filter, over the class representatives when the space has a
   class map.  See vp_tree.mli for why the name stays. *)

type index =
  | Prefix of Prefix.t
  | Bk of Bk_tree.t

(* A class's neighborhood is the same for each of its members, so it is
   asked of the index once and kept, expanded into ascending members,
   until every member has asked. *)
type groups = {
  classes : Distance.Features.classes;
  pending : int array;  (* members of each class yet to ask *)
  hits : (float * int array) option array;  (* (eps, members in range) *)
}

type t = {
  index : index;
  groups : groups option;
}

let build_index ?pool ~seed space =
  if Space.is_int_metric space then Bk (Bk_tree.build ?pool ~seed space)
  else Prefix (Prefix.build space)

let build ?pool ~seed space =
  match Space.classes space with
  | None -> { index = build_index ?pool ~seed space; groups = None }
  | Some c ->
    { index = build_index ?pool ~seed (Space.representatives space c);
      groups =
        Some
          { classes = c;
            pending = Array.map Array.length c.members;
            hits = Array.make (Array.length c.reps) None } }

type stats = Space.stats = { probes : int; prunes : int }

let index_range t ~eps q =
  match t.index with
  | Prefix p -> Prefix.range_stats p ~eps q
  | Bk bk -> Bk_tree.range_stats bk ~eps q

(* the members of every class within eps of class [a]: the index's hit
   classes, and [a] itself when it has other members and
   [d(rep, rep) <= eps].  Every measure of a space is 0 on a point and
   itself (an empty Jaccard union and an empty edit sequence both read
   0), so that is [0 <= eps]: nan, or a negative eps, excludes it *)
let class_range t g ~eps a =
  let hit, st = index_range t ~eps a in
  let own = Array.length g.classes.members.(a) > 1 && 0.0 <= eps in
  let ms =
    Array.concat
      (List.map (fun b -> g.classes.members.(b)) (if own then a :: hit else hit))
  in
  Array.sort Int.compare ms;
  (ms, st)

let range_stats t ~eps q =
  match t.groups with
  | None -> index_range t ~eps q
  | Some g ->
    let a = g.classes.class_of.(q) in
    let ms, st =
      match g.hits.(a) with
      | Some (e, ms) when Float.equal e eps -> (ms, { probes = 0; prunes = 0 })
      | _ ->
        let ms, st = class_range t g ~eps a in
        g.hits.(a) <- Some (eps, ms);
        (ms, st)
    in
    g.pending.(a) <- g.pending.(a) - 1;
    if g.pending.(a) = 0 then begin
      g.hits.(a) <- None;
      g.pending.(a) <- Array.length g.classes.members.(a)
    end;
    (Array.fold_right (fun j acc -> if j = q then acc else j :: acc) ms [], st)

let range t ~eps q = fst (range_stats t ~eps q)

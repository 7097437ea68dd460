type bound = { v : float; incl : bool }

type ival = {
  lo : bound option;
  hi : bound option;
}

(* invariant: sorted by lower bound, pairwise disjoint and non-adjacent *)
type t = ival list

let empty : t = []
let all : t = [ { lo = None; hi = None } ]

(* [lo] starts no later than [hi] ends: touching counts only if both
   sides are inclusive *)
let starts_by lo hi =
  match lo, hi with
  | None, _ | _, None -> true
  | Some a, Some b -> a.v < b.v || (a.v = b.v && a.incl && b.incl)

let ival_nonempty i = starts_by i.lo i.hi

let of_ival i = if ival_nonempty i then [ i ] else []

let point v = of_ival { lo = Some { v; incl = true }; hi = Some { v; incl = true } }

let closed a b = of_ival { lo = Some { v = a; incl = true }; hi = Some { v = b; incl = true } }

let lower ~incl b = [ { lo = None; hi = Some { v = b; incl } } ]
let upper ~incl a = [ { lo = Some { v = a; incl }; hi = None } ]

(* order of lower bounds: -inf first; at equal value, inclusive first *)
let cmp_lo a b =
  match a, b with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y ->
    if x.v <> y.v then compare x.v y.v
    else compare (not x.incl) (not y.incl) (* incl=true sorts first *)

(* does interval [j] start no later than where [i] ends (touching counts
   only if at least one side is inclusive)? *)
let merges i j =
  match i.hi, j.lo with
  | None, _ | _, None -> true
  | Some h, Some l -> l.v < h.v || (l.v = h.v && (h.incl || l.incl))

(* max of two upper bounds *)
let max_hi a b =
  match a, b with
  | None, _ | _, None -> None
  | Some x, Some y ->
    if x.v > y.v then Some x
    else if y.v > x.v then Some y
    else Some { x with incl = x.incl || y.incl }

let normalize ivals =
  let ivals = List.filter ival_nonempty ivals in
  let sorted = List.sort (fun i j -> cmp_lo i.lo j.lo) ivals in
  let rec merge = function
    | [] -> []
    | [ i ] -> [ i ]
    | i :: j :: rest ->
      if merges i j then merge ({ lo = i.lo; hi = max_hi i.hi j.hi } :: rest)
      else i :: merge (j :: rest)
  in
  merge sorted

let union a b = normalize (a @ b)

let complement (t : t) : t =
  match t with
  | [] -> all
  | first :: _ ->
    let flip b = { b with incl = not b.incl } in
    let head =
      match first.lo with
      | None -> []
      | Some b -> [ { lo = None; hi = Some (flip b) } ]
    in
    (* in a normalized list, every interval followed by another has a finite
       upper bound, and every non-first interval has a finite lower bound *)
    let rec gaps = function
      | [] -> []
      | [ last ] ->
        (match last.hi with
         | None -> []
         | Some b -> [ { lo = Some (flip b); hi = None } ])
      | i :: (j :: _ as rest) ->
        (match i.hi, j.lo with
         | Some h, Some l ->
           { lo = Some (flip h); hi = Some (flip l) } :: gaps rest
         | _ -> assert false)
    in
    List.filter ival_nonempty (head @ gaps t)

let inter a b = complement (union (complement a) (complement b))

let is_empty t = t = []

let is_all = function
  | [ { lo = None; hi = None } ] -> true
  | _ -> false

let equal (a : t) (b : t) = a = b

(* some member of [a] meets some member of [b]: the emptiness of
   [inter a b] without building it, as long as every endpoint is
   ordered.  A [nan] endpoint is not, and there [inter]'s answer
   depends on the order in which [normalize] merges, so it decides. *)
let meets i j = starts_by i.lo j.hi && starts_by j.lo i.hi

let rec meets_any i = function [] -> false | j :: b -> meets i j || meets_any i b
let rec meet a b = match a with [] -> false | i :: a -> meets_any i b || meet a b

let nan_bound = function Some b -> Float.is_nan b.v | None -> false
let rec has_nan = function [] -> false | i :: t -> nan_bound i.lo || nan_bound i.hi || has_nan t

let overlaps a b =
  if has_nan a || has_nan b then not (is_empty (inter a b)) else meet a b

let mem v t =
  List.exists
    (fun i ->
      (match i.lo with
       | None -> true
       | Some b -> b.v < v || (b.v = v && b.incl))
      && (match i.hi with
          | None -> true
          | Some b -> v < b.v || (v = b.v && b.incl)))
    t

let intervals t = t

let map_endpoints f t =
  let map_bound = Option.map (fun b -> { b with v = f b.v }) in
  List.map (fun i -> { lo = map_bound i.lo; hi = map_bound i.hi }) t

(* lossless float rendering: the string doubles as a canonical form for
   opaque access-area atoms, where two distinct OPE ciphertext endpoints
   must never collide (%g keeps only 6 significant digits) *)
let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%h" v

let bound_to_string ~is_lo = function
  | None -> if is_lo then "(-inf" else "+inf)"
  | Some b ->
    if is_lo then
      Printf.sprintf "%c%s" (if b.incl then '[' else '(') (float_repr b.v)
    else Printf.sprintf "%s%c" (float_repr b.v) (if b.incl then ']' else ')')

let to_string t =
  if is_empty t then "{}"
  else
    String.concat " u "
      (List.map
         (fun i ->
           Printf.sprintf "%s, %s"
             (bound_to_string ~is_lo:true i.lo)
             (bound_to_string ~is_lo:false i.hi))
         t)

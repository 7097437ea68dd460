(* DOM01 — unsynchronized mutable capture in pool tasks.

   A closure handed to a [Parallel.Pool] combinator runs on an arbitrary
   domain; mutating non-atomic state it captured from the submitting
   scope is a data race.  Flagged inside such closures:

   - [:=] / [incr] / [decr] on a captured ref (reads through [!] are
     not: read-only sharing of a preset ref is how config flags are
     passed in);
   - any [Hashtbl.*] / [Buffer.*] / [Queue.*] / [Stack.*] operation on a
     captured table/buffer (these types are not domain-safe even for
     reads mixed with any concurrent write, so every op is flagged);
   - [<-] on a mutable field of a captured record.

   Not flagged by design: [Atomic.*] (that is the fix), [Array] writes
   (disjoint per-index writes are the pool's contract), and any closure
   whose body takes a [Mutex] ([lock]/[try_lock]/[protect]) or uses
   [Domain.DLS] — a coarse guard: one lock acquisition anywhere in the
   task body vouches for the whole task.  Capture detection is
   over-approximate (free = used but not bound inside the closure), so
   module-level tables count as captured — which is exactly right. *)

module C = Typed_common

let pool_combinators =
  [ [ "Pool"; "run_tasks" ]; [ "Pool"; "for_range" ];
    [ "Pool"; "map_range" ]; [ "Pool"; "map_range_r" ] ]

let guard_fns =
  [ [ "Mutex"; "lock" ]; [ "Mutex"; "try_lock" ]; [ "Mutex"; "protect" ];
    [ "DLS"; "get" ]; [ "DLS"; "set" ] ]

let container_mods = [ "Hashtbl"; "Buffer"; "Queue"; "Stack" ]

let ref_writers = [ [ ":=" ]; [ "incr" ]; [ "decr" ] ]

(* exact match so [Atomic.incr] never aliases the ref [incr] *)
let is_ref_writer segs = List.exists (List.equal String.equal segs) ref_writers

let iter_exprs_of_expr f e =
  let it =
    { Tast_iterator.default_iterator with
      expr =
        (fun self sub ->
          f sub;
          Tast_iterator.default_iterator.expr self sub) }
  in
  it.expr it e

let iter_exprs_of_structure f str =
  let it =
    { Tast_iterator.default_iterator with
      expr =
        (fun self sub ->
          f sub;
          Tast_iterator.default_iterator.expr self sub) }
  in
  it.structure it str

(* every binder introduced anywhere inside the closure (params, lets,
   match cases); anything else used by name was captured *)
let binders_of e =
  let set = Hashtbl.create 16 in
  let it =
    { Tast_iterator.default_iterator with
      pat =
        (fun self p ->
          List.iter
            (fun (id, _, _) -> Hashtbl.replace set (Ident.unique_name id) ())
            (C.pattern_binders p);
          Tast_iterator.default_iterator.pat self p) }
  in
  it.expr it e;
  set

let free_ident binders (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id, _, _)
    when not (Hashtbl.mem binders (Ident.unique_name id)) ->
    Some (Ident.name id)
  | _ -> None

(* root identifier of a field-projection chain: [r.a.b <- x] mutates [r] *)
let rec root_ident binders (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_field (e0, _, _) -> root_ident binders e0
  | _ -> free_ident binders e

let has_guard closure =
  let found = ref false in
  iter_exprs_of_expr
    (fun e ->
      match e.Typedtree.exp_desc with
      | Typedtree.Texp_apply (fn, _) ->
        (match C.head_of_apply fn with
         | Some segs when C.any_suffix guard_fns segs -> found := true
         | _ -> ())
      | _ -> ())
    closure;
  !found

let check_closure ~path ~comb closure =
  if has_guard closure then []
  else begin
    let binders = binders_of closure in
    let findings = ref [] in
    let flag loc what name =
      findings :=
        C.at "DOM01" Rule.Error ~path loc
          (Printf.sprintf
             "closure passed to Parallel.Pool.%s mutates captured %s '%s' \
              without a Mutex/DLS guard (use Atomic, per-index arrays, or \
              merge per-lane results after the batch)"
             comb what name)
        :: !findings
    in
    iter_exprs_of_expr
      (fun e ->
        match e.Typedtree.exp_desc with
        | Typedtree.Texp_apply (fn, args) ->
          let argsE = C.arg_exprs args in
          (match C.head_of_apply fn with
           | Some segs when is_ref_writer segs ->
             (match argsE with
              | target :: _ ->
                (match free_ident binders target with
                 | Some name -> flag e.Typedtree.exp_loc "ref" name
                 | None -> ())
              | [] -> ())
           | Some (m :: _ :: _) when List.mem m container_mods ->
             List.iter
               (fun (a : Typedtree.expression) ->
                 match free_ident binders a with
                 | Some name
                   when (match C.type_head_segs a.Typedtree.exp_type with
                        | Some (tm :: _) -> List.mem tm container_mods
                        | _ -> false) ->
                   flag e.Typedtree.exp_loc m name
                 | _ -> ())
               argsE
           | _ -> ())
        | Typedtree.Texp_setfield (obj, _, lbl, _) ->
          (match root_ident binders obj with
           | Some name ->
             flag e.Typedtree.exp_loc "mutable field"
               (name ^ "." ^ lbl.Types.lbl_name)
           | None -> ())
        | _ -> ())
      closure;
    List.rev !findings
  end

(* topmost Texp_function nodes inside an argument subtree — handles both
   literal lambdas and task lists built with [List.map (fun ...) ...] *)
let closures_in arg =
  let out = ref [] in
  let rec it_ref =
    { Tast_iterator.default_iterator with
      expr =
        (fun _ (e : Typedtree.expression) ->
          match e.Typedtree.exp_desc with
          | Typedtree.Texp_function _ -> out := e :: !out
          | _ -> Tast_iterator.default_iterator.expr it_ref e) }
  in
  it_ref.expr it_ref arg;
  List.rev !out

let check (u : C.unit_info) =
  if not (C.under [ "lib" ] u || C.under [ "bin" ] u) then []
  else begin
    let findings = ref [] in
    iter_exprs_of_structure
      (fun e ->
        match e.Typedtree.exp_desc with
        | Typedtree.Texp_apply (fn, args) ->
          (match C.head_of_apply fn with
           | Some segs when C.any_suffix pool_combinators segs ->
             let comb = match List.rev segs with name :: _ -> name | [] -> "?" in
             List.iter
               (fun arg ->
                 List.iter
                   (fun cl ->
                     findings :=
                       !findings @ check_closure ~path:u.C.src_path ~comb cl)
                   (closures_in arg))
               (C.arg_exprs args)
           | _ -> ())
        | _ -> ())
      u.C.str;
    !findings
  end

let rule =
  { C.id = "DOM01";
    severity = Rule.Error;
    doc =
      "non-atomic mutable state captured by a Parallel.Pool task without a \
       Mutex/DLS guard";
    check }

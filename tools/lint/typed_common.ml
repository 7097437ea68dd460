(* Shared vocabulary for the typed (.cmt-based) lint tier.

   Where the syntactic rules (rule_*.ml) pattern-match the Parsetree and
   can only guess from identifier spellings, the typed tier sees the
   Typedtree that dune's compilation already produced: every identifier
   carries its resolved [Path.t] and every expression its inferred
   [Types.type_expr].  This module holds the helpers both typed rules
   share — path/type normalization and the security tables (secret
   sources, exfiltration sinks, declassifiers) — so the tables live in
   exactly one place and DESIGN.md §13 can document them verbatim. *)

(* ---- path normalization ----

   Dune wraps libraries, so the same function appears as
   [Crypto.Paillier.decrypt] from outside the library and as
   [Crypto__Paillier.decrypt] from a sibling module.  Normalizing splits
   the mangled "__" separators and drops a leading [Stdlib], giving one
   segment list both spellings share; tables then match on a *suffix* of
   the normalized segments, mirroring how [Rule.under] matches path
   segments anywhere in a file path. *)

let split_mangled seg =
  (* "Crypto__Paillier" -> ["Crypto"; "Paillier"]; plain segments pass
     through; a lone "__" separator never yields empty segments *)
  let n = String.length seg in
  let out = ref [] and start = ref 0 and i = ref 0 in
  while !i + 1 < n do
    if seg.[!i] = '_' && seg.[!i + 1] = '_' then begin
      if !i > !start then out := String.sub seg !start (!i - !start) :: !out;
      i := !i + 2;
      start := !i
    end
    else incr i
  done;
  if n > !start then out := String.sub seg !start (n - !start) :: !out;
  List.rev !out

let rec path_raw_segs = function
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> path_raw_segs p @ [ s ]
  | Path.Papply (p, _) | Path.Pextra_ty (p, _) -> path_raw_segs p

let norm_segs segs =
  match List.concat_map split_mangled segs with
  | "Stdlib" :: rest -> rest
  | segs -> segs

let path_segs p = norm_segs (path_raw_segs p)

let segs_to_string segs = String.concat "." segs

(* [suffix_matches entry segs]: [entry] is a suffix of [segs].  Used for
   table lookups so ["Paillier"; "secret"] matches both
   [Crypto.Paillier.secret] and [Crypto__Paillier.secret]. *)
let suffix_matches entry segs =
  let le = List.length entry and ls = List.length segs in
  le <= ls
  &&
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  List.equal String.equal entry (drop (ls - le) segs)

let any_suffix table segs = List.exists (fun e -> suffix_matches e segs) table

(* ---- type inspection ---- *)

let rec type_head ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) -> Some (path_segs p, args)
  | Types.Tpoly (ty, _) -> type_head ty
  | _ -> None

let type_head_segs ty = Option.map fst (type_head ty)

let type_is table ty =
  match type_head_segs ty with Some segs -> any_suffix table segs | None -> false

(* ---- expression heads ---- *)

let head_of_apply (fn : Typedtree.expression) =
  match fn.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Some (path_segs p)
  | _ -> None

(* positional + labelled argument expressions, in source order *)
let arg_exprs args =
  List.filter_map (fun (_, a) -> a) (args : (Asttypes.arg_label * Typedtree.expression option) list)

(* ---- attributes ---- *)

let has_attr name (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> String.equal a.Parsetree.attr_name.Location.txt name)
    attrs

(* ---- pattern binders ---- *)

let pattern_binders :
  type k. k Typedtree.general_pattern -> (Ident.t * Parsetree.attributes * Types.type_expr) list =
  fun pat ->
  let out = ref [] in
  let rec go : type k. k Typedtree.general_pattern -> unit =
    fun p ->
    (match p.Typedtree.pat_desc with
     | Typedtree.Tpat_var (id, _) ->
       out := (id, p.Typedtree.pat_attributes, p.Typedtree.pat_type) :: !out
     | Typedtree.Tpat_alias (sub, id, _) ->
       out := (id, p.Typedtree.pat_attributes, p.Typedtree.pat_type) :: !out;
       go sub
     | Typedtree.Tpat_tuple ps | Typedtree.Tpat_construct (_, _, ps, _) | Typedtree.Tpat_array ps ->
       List.iter go ps
     | Typedtree.Tpat_variant (_, Some sub, _) -> go sub
     | Typedtree.Tpat_record (fields, _) -> List.iter (fun (_, _, sub) -> go sub) fields
     | Typedtree.Tpat_lazy sub -> go sub
     | Typedtree.Tpat_or (a, b, _) -> go a; go b
     | Typedtree.Tpat_value v -> go (v :> Typedtree.pattern)
     | Typedtree.Tpat_exception sub -> go sub
     | _ -> ())
  in
  go pat;
  !out

(* ---- the security tables (DESIGN.md §13) ---- *)

(* Types whose values ARE secret material.  A value of one of these
   types reaching a sink is a finding even with no string conversion in
   between (e.g. a DRBG handed to a [Fault.Error] payload). *)
let secret_types =
  [ [ "Paillier"; "secret" ];
    [ "Paillier"; "pool" ];  (* pooled r^n noise: knowing it inverts the ciphertext *)
    [ "Drbg"; "t" ];
    [ "Keyring"; "t" ];
    [ "Det"; "key" ];
    [ "Prob"; "key" ];
    [ "Ope"; "key" ] ]

(* Functions whose RESULT is secret-derived printable data. *)
let source_fns_always = [ [ "Keyring"; "master" ]; [ "Hmac"; "derive" ] ]

(* Decryption results are plaintexts: secret inside lib/ (the paper's
   crypto boundary), legitimate output on the trusted-client side
   (bin/dpe_cli prints query results by design). *)
let source_fns_lib_only =
  [ [ "Paillier"; "decrypt" ];
    [ "Paillier"; "decrypt_lambda" ];
    [ "Paillier"; "decrypt_int" ];
    [ "Det"; "decrypt" ];
    [ "Prob"; "decrypt" ];
    [ "Ope"; "decrypt" ] ]

(* Pure data-shuffling functions through which taint survives: a string
   built from a secret is as secret as the secret.  Encryption functions
   are deliberately NOT here — applying a key produces a public
   ciphertext, which is the whole point of the scheme. *)
let serializer_fns =
  [ [ "to_string" ]; [ "to_bytes" ]; [ "to_hex" ]; [ "of_string" ];
    [ "serialize" ]; [ "Hex"; "encode" ]; [ "^" ];
    [ "Printf"; "sprintf" ]; [ "Format"; "sprintf" ]; [ "Format"; "asprintf" ];
    [ "string_of_int" ]; [ "string_of_float" ]; [ "Char"; "escaped" ] ]

(* Any [String.*] / [Bytes.*] operation propagates too (sub, concat,
   map, ...) — except the length-like names the declassifier list
   swallows first. *)
let serializer_prefixes = [ [ "String" ]; [ "Bytes" ] ]

(* Declassifiers: subtrees rooted here are public by construction.
   [Crypto.Ct.redact] is the explicit marker (length + truncated digest);
   length/bit counts were already treated as public by syntactic CT01. *)
let declassifier_fns = [ [ "Ct"; "redact" ] ]

let declassifier_name_suffixes = [ "length"; "bits" ]

let is_declassifier segs =
  any_suffix declassifier_fns segs
  ||
  (match List.rev segs with
   | last :: _ ->
     let l = String.lowercase_ascii last in
     List.exists
       (fun suf ->
         let n = String.length l and m = String.length suf in
         n >= m && String.equal (String.sub l (n - m) m) suf)
       declassifier_name_suffixes
   | [] -> false)

(* Exfiltration sinks: every value argument is checked for taint.
   [ksprintf]/[kasprintf] are listed because their continuation is
   opaque to the analysis — in this tree they feed [raise] (the
   [Dpe.Encryptor.err] helper), so a tainted format argument escapes
   through the exception payload. *)
let sink_fns =
  [ (* process output / file writes *)
    [ "Printf"; "printf" ]; [ "Printf"; "eprintf" ]; [ "Printf"; "fprintf" ];
    [ "Format"; "printf" ]; [ "Format"; "eprintf" ]; [ "Format"; "fprintf" ];
    [ "print_string" ]; [ "print_endline" ]; [ "print_bytes" ];
    [ "prerr_string" ]; [ "prerr_endline" ];
    [ "output_string" ]; [ "output_bytes" ]; [ "output" ];
    (* stringly-typed exception raisers *)
    [ "failwith" ]; [ "invalid_arg" ];
    (* telemetry: span names, metric names, pre-timed span records *)
    [ "Span"; "with_span" ]; [ "Span"; "record" ];
    [ "Registry"; "counter" ]; [ "Registry"; "gauge" ];
    [ "Registry"; "sketch" ];
    (* CPS formatters with an opaque continuation *)
    [ "Printf"; "ksprintf" ]; [ "Format"; "kasprintf" ] ]

(* Error-channel sinks: building a [Fault.Error.t] (or raising any
   exception) with a tainted payload hands the secret to whatever prints
   the error — [to_string] renders every field. *)
let error_types = [ [ "Fault"; "Error"; "t" ] ]

(* ---- findings ---- *)

let at = Rule.at

(* ---- typed units and rules ---- *)

(* One compilation unit loaded from a .cmt: the typed structure plus the
   resolved source (path + text, for findings and inline suppression). *)
type unit_info = {
  cmt_path : string;
  src_path : string;  (* resolved source file, as reported in findings *)
  src_segs : string list;  (* [src_path] split on '/' *)
  content : string;  (* source text, for suppression comments *)
  str : Typedtree.structure;
}

type trule = {
  id : string;
  severity : Rule.severity;
  doc : string;
  check : unit_info -> Rule.finding list;
}

(* same consecutive-segment scoping as [Rule.under] *)
let under segs (u : unit_info) =
  let rec prefix = function
    | [], _ -> true
    | _, [] -> false
    | s :: ss, p :: ps -> String.equal s p && prefix (ss, ps)
  in
  let rec scan = function
    | [] -> false
    | _ :: rest as l -> prefix (segs, l) || scan rest
  in
  scan u.src_segs

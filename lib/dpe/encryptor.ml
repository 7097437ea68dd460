module Ast = Sqlir.Ast
module Value = Minidb.Value

exception Encrypt_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Encrypt_error s)) fmt

(* caught [Encrypt_error]s surface through the typed channel as crypto
   failures instead of an opaque [Unexpected] *)
let () =
  Fault.Error.register_exn_translator (function
    | Encrypt_error reason ->
      Some (Fault.Error.Crypto_failure { op = "dpe.encryptor"; reason })
    | _ -> None)

(* OPE domain ([Crypto.Ope.default_params]): signed 32-bit integers,
   shifted into [0, 2^32) *)
let ope_offset = 1 lsl 31

(* One attribute, one cipher: the key its constant class resolves to. *)
type cipher =
  | Det of Crypto.Det.key
  | Prob of Crypto.Prob.key
  | Ope of Crypto.Ope.key
  | Hom of Crypto.Paillier.public

type t = {
  keyring : Crypto.Keyring.t;
  scheme : Scheme.t;
  rng : Crypto.Drbg.t;
  rel_key : Crypto.Det.key;
  attr_key : Crypto.Det.key;
  ciphers : (string, cipher) Hashtbl.t;
  mutable paillier_pair : (Crypto.Paillier.public * Crypto.Paillier.secret) option;
  mutable noise_pool : Crypto.Paillier.pool option;
}

(* under a Global policy all identifiers share one token map, so that a
   name used both as a relation and as an attribute stays one token *)
let is_global_policy = function
  | Scheme.Global _ -> true
  | Scheme.Per_attribute _ -> false

let create keyring scheme =
  let ident slot =
    Crypto.Keyring.det keyring
      (if is_global_policy scheme.Scheme.consts then "token" else slot)
  in
  { keyring; scheme;
    rng = Crypto.Keyring.drbg keyring "encryptor";
    rel_key = ident "rel";
    attr_key = ident "attr";
    ciphers = Hashtbl.create 16;
    paillier_pair = None;
    noise_pool = None }

let scheme t = t.scheme
let is_global t = is_global_policy t.scheme.Scheme.consts

let paillier t =
  match t.paillier_pair with
  | Some pair -> pair
  | None ->
    let rng = Crypto.Keyring.drbg t.keyring "paillier-keygen" in
    let pair = Crypto.Paillier.keygen ~bits:512 rng in
    t.paillier_pair <- Some pair;
    pair

(* The only place a constant class becomes a key.  Purposes: "token"
   (global DET, shared with the identifier map), "const-global" (global
   PROB), "const/<attr>" (per-attribute DET/PROB/OPE), "join:<g>" (a
   join group's shared DET or OPE key).  Keys are cached by purpose, so
   every attribute of a join group shares one OPE key and its memo. *)
let cipher t ~attr =
  let cached label make =
    match Hashtbl.find_opt t.ciphers label with
    | Some c -> c
    | None ->
      let c = make () in
      Hashtbl.add t.ciphers label c;
      c
  in
  let purpose global = if is_global t then global else "const/" ^ attr in
  let kr = t.keyring in
  match Scheme.class_for_attr t.scheme attr with
  | Scheme.C_det ->
    let p = purpose "token" in
    cached ("det/" ^ p) (fun () -> Det (Crypto.Keyring.det kr p))
  | Scheme.C_det_join g ->
    cached ("det/join:" ^ g) (fun () -> Det (Crypto.Keyring.join_det kr g))
  | Scheme.C_prob ->
    let p = purpose "const-global" in
    cached ("prob/" ^ p) (fun () -> Prob (Crypto.Keyring.prob kr p))
  | Scheme.C_ope ->
    let p = "const/" ^ attr in
    cached ("ope/" ^ p) (fun () -> Ope (Crypto.Keyring.ope kr p))
  | Scheme.C_ope_join g ->
    cached ("ope/join:" ^ g) (fun () -> Ope (Crypto.Keyring.join_ope kr g))
  | Scheme.C_hom -> Hom (fst (paillier t))

(* ---- HOM noise pool ----

   Every HOM cell owns a derivation label and draws its Paillier
   randomness from the keyring DRBG of that label — never from the
   shared row generator — so the r^n factor can be precomputed by any
   lane, in any order, before (or instead of) the encrypting lane
   deriving it itself.  The label depends only on the cell coordinates:
   it is deliberately independent of the bulk-path retry attempt, so a
   retried row re-produces the identical HOM ciphertext and a prewarmed
   pool entry stays valid across retries. *)

let hom_cell_key ~rel ~row ~attr = Printf.sprintf "%s/%d/%s" rel row attr

let hom_noise_rng t key = Crypto.Keyring.drbg t.keyring ("paillier-noise/" ^ key)

let enable_noise_pool ?capacity t =
  match t.noise_pool with
  | Some pool -> pool
  | None ->
    let pool = Crypto.Paillier.pool_create ?capacity () in
    t.noise_pool <- Some pool;
    pool

let noise_pool t = t.noise_pool

(* identifier-safe deterministic name encryption; the full SIV ciphertext
   is kept so the key owner can invert it *)
let ident_key t ~slot = if slot = "rel" then t.rel_key else t.attr_key

let encrypt_name t ~slot ~prefix name =
  prefix ^ Crypto.Hex.encode (Crypto.Det.encrypt (ident_key t ~slot) name)

let decrypt_name t ~slot ~prefix name =
  let plen = String.length prefix in
  if String.length name <= plen || String.sub name 0 plen <> prefix then None
  else
    match Crypto.Hex.decode (String.sub name plen (String.length name - plen)) with
    | None -> None
    | Some ct -> Crypto.Det.decrypt (ident_key t ~slot) ct

let ident_prefix t ~slot =
  if is_global t then "x_" else if slot = "rel" then "r_" else "a_"

let encrypt_rel t name = encrypt_name t ~slot:"rel" ~prefix:(ident_prefix t ~slot:"rel") name
let encrypt_attr_name t name =
  encrypt_name t ~slot:"attr" ~prefix:(ident_prefix t ~slot:"attr") name

let decrypt_rel t name = decrypt_name t ~slot:"rel" ~prefix:(ident_prefix t ~slot:"rel") name
let decrypt_attr_name t name =
  decrypt_name t ~slot:"attr" ~prefix:(ident_prefix t ~slot:"attr") name

(* ---- constants ---- *)

let render_const = Sqlir.Printer.const_to_string

(* inverse of [render_const] *)
let unescape_quotes s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '\'' && !i + 1 < n && s.[!i + 1] = '\'' then begin
      Buffer.add_char buf '\'';
      i := !i + 2
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let unrender_const s =
  let n = String.length s in
  if n >= 2 && s.[0] = '\'' && s.[n - 1] = '\'' then
    Ast.Cstring (unescape_quotes (String.sub s 1 (n - 2)))
  else
    match int_of_string_opt s with
    | Some i -> Ast.Cint i
    | None ->
      (match float_of_string_opt s with
       | Some f -> Ast.Cfloat f
       | None -> Ast.Cstring s)

let ope_int key (n [@secret]) =
  if n < -ope_offset || n >= ope_offset then
    raise
      (Fault.Error.E
         (Fault.Error.Ope_range_exhausted
            { op = "Dpe.Encryptor.ope_int"; bits = Crypto.Ct.int_bits n }));
  Crypto.Ope.encrypt key (n + ope_offset)

(* The one per-class encoder.  [rng] feeds PROB IVs and Paillier noise;
   [memo] is a bulk column's DET memo; [pool]/[label] let a HOM cell take
   its prewarmed noise factor.  [attr] only names the column in errors. *)
let encode ?memo ?pool ?(label = "") ~rng ~attr cipher (c [@secret]) =
  let integer () =
    match c with
    | Ast.Cint n -> n
    | Ast.Cfloat f ->
      err "OPE/HOM column %s holds float %s" attr (Crypto.Ct.redact (string_of_float f))
    | Ast.Cstring s -> err "OPE/HOM column %s holds string %s" attr (Crypto.Ct.redact s)
  in
  match cipher with
  | Det key ->
    let m = render_const c in
    Ast.Cstring
      (Crypto.Hex.encode
         (match memo with
          | Some memo -> Crypto.Det.encrypt_cached memo key m
          | None -> Crypto.Det.encrypt key m))
  | Prob key ->
    Ast.Cstring (Crypto.Hex.encode (Crypto.Prob.encrypt key rng (render_const c)))
  | Ope key -> Ast.Cint (ope_int key (integer ()))
  | Hom pub ->
    Ast.Cstring
      (Crypto.Hex.encode
         (Crypto.Paillier.serialize
            (Crypto.Paillier.encrypt_int_pooled ?pool pub ~key:label rng (integer ()))))

(* The one per-class decoder: the key owner's inverse of [encode]. *)
let decode t cipher (c : Ast.const) =
  let unhex s k =
    match Crypto.Hex.decode s with None -> Error "not hex" | Some ct -> k ct
  in
  match cipher, c with
  | Det key, Ast.Cstring s ->
    unhex s (fun ct ->
        match Crypto.Det.decrypt key ct with
        | Some plain -> Ok (unrender_const plain)
        | None -> Error "DET decryption failed")
  | Prob key, Ast.Cstring s ->
    unhex s (fun ct ->
        match Crypto.Prob.decrypt key ct with
        | Some plain -> Ok (unrender_const plain)
        | None -> Error "PROB decryption failed (wrong key or corrupt)")
  | Ope key, Ast.Cint n ->
    (match Crypto.Ope.decrypt key n with
     | Some m -> Ok (Ast.Cint (m - ope_offset))
     | None -> Error (Printf.sprintf "OPE ciphertext %d is not in the image" n))
  | Hom _, Ast.Cstring s ->
    unhex s (fun ct ->
        let _, sk = paillier t in
        Ok (Ast.Cint (Crypto.Paillier.decrypt_int sk (Crypto.Paillier.deserialize ct))))
  | _, c ->
    Error
      (Printf.sprintf "ciphertext %s does not match its column's policy" (render_const c))

(* the policy key of an attribute is its unqualified plaintext name *)
let policy_key (a : Ast.attr) = a.Ast.name

(* The attribute and cipher of a query constant, or [None] for COUNT
   thresholds (plaintext cardinalities on both sides).  [name] recovers
   an attribute's plaintext policy key from the query. *)
let const_cipher t ~name (ctx : Ast.const_ctx) =
  match t.scheme.Scheme.consts, ctx with
  | Scheme.Global _, _ ->
    (* one token-level map: the key does not depend on the attribute *)
    (match cipher t ~attr:"" with
     | (Det _ | Prob _) as c -> Some ("", c)
     | Ope _ | Hom _ ->
       err "unsupported global constant class %s" (Scheme.const_summary t.scheme))
  | Scheme.Per_attribute _, Ast.In_aggregate (Ast.Count, _) -> None
  | Scheme.Per_attribute _,
    (Ast.In_predicate a | Ast.In_aggregate ((Ast.Min | Ast.Max), Some a)) ->
    let attr = name a in
    (match cipher t ~attr with
     | Hom _ -> err "constant of attribute %s compared against a HOM column" a.Ast.name
     | c -> Some (attr, c))
  | Scheme.Per_attribute _, Ast.In_aggregate ((Ast.Sum | Ast.Avg), Some a) ->
    err "SUM/AVG threshold on %s cannot be compared under encryption \
         (needs the client round-trip)" a.Ast.name
  | Scheme.Per_attribute _, Ast.In_aggregate (_, None) ->
    err "aggregate threshold without an argument attribute"

let encrypt_const t (ctx : Ast.const_ctx) (c : Ast.const) : Ast.const =
  match const_cipher t ~name:policy_key ctx with
  | None -> c
  | Some (attr, cipher) -> encode ~rng:t.rng ~attr cipher c

let encrypt_attr t (a : Ast.attr) : Ast.attr =
  { Ast.rel = Option.map (encrypt_rel t) a.Ast.rel;
    name = encrypt_attr_name t a.Ast.name }

let encrypt_query t q =
  Ast.map_query ~rel:(encrypt_rel t) ~attr:(encrypt_attr t) ~const:(encrypt_const t) q

let encrypt_log t log = List.map (encrypt_query t) log

(* ---- decryption ---- *)

let decrypt_const_exn t (ctx : Ast.const_ctx) (c : Ast.const) : Ast.const =
  (* ctx carries the *encrypted* attribute: recover its plaintext name to
     find the policy *)
  let name (a : Ast.attr) =
    match decrypt_attr_name t a.Ast.name with
    | Some n -> n
    | None -> err "cannot decrypt attribute name %s" a.Ast.name
  in
  match const_cipher t ~name ctx with
  | None -> c
  | Some (_, cipher) ->
    (match decode t cipher c with
     | Ok plain -> plain
     | Error e -> err "%s" e)

let decrypt_query t q =
  let rel name =
    match decrypt_rel t name with
    | Some n -> n
    | None -> err "cannot decrypt relation name %s" name
  in
  let attr (a : Ast.attr) =
    match decrypt_attr_name t a.Ast.name with
    | Some n -> { Ast.rel = Option.map rel a.Ast.rel; name = n }
    | None -> err "cannot decrypt attribute name %s" a.Ast.name
  in
  match Ast.map_query ~rel ~attr ~const:(decrypt_const_exn t) q with
  | q' -> Ok q'
  | exception Encrypt_error msg -> Error msg

(* ---- values: the constant codec through [Value.to_const]/[of_const] ---- *)

let encode_value ?memo ?pool ?label ~rng ~attr cipher (v [@secret]) =
  match Value.to_const v with
  | None -> v
  | Some c -> Value.of_const (encode ?memo ?pool ?label ~rng ~attr cipher c)

let encrypt_value t ~attr (v [@secret]) =
  if Value.is_null v then v else encode_value ~rng:t.rng ~attr (cipher t ~attr) v

(* ---- bulk (multi-domain) encryption support ----

   [encrypt_value] draws PROB IVs and Paillier randomness from the
   encryptor's single sequential DRBG, which bulk row encryption cannot
   share across domains.  The bulk path instead gives every row its own
   generator derived from the keyring ([row_rng]) and resolves each
   column's cipher once, up front, into a closure over immutable state
   ([column_encoder]) that any domain may call. *)

let row_rng ?(attempt = 0) t ~rel i =
  (* attempt 0 keeps the historical purpose string, so faults-off bulk
     ciphertexts stay bit-identical; a retry re-derives fresh (but still
     deterministic) randomness from the attempt number *)
  let purpose =
    if attempt = 0 then Printf.sprintf "row/%s/%d" rel i
    else Printf.sprintf "row/%s/%d/retry/%d" rel i attempt
  in
  Crypto.Keyring.drbg t.keyring purpose

let column_encoder t ~rel ~attr =
  match cipher t ~attr with
  | Hom _ as hom ->
    (* the shared row generator is ignored: each cell derives its own
       DRBG from the cell label, the same stream [noise_fill] uses, so
       the ciphertext is identical with the pool warm, cold or absent *)
    fun ~rng:_ ~row (v [@secret]) ->
      if Value.is_null v then v
      else begin
        let label = hom_cell_key ~rel ~row ~attr in
        encode_value ?pool:t.noise_pool ~label ~rng:(hom_noise_rng t label) ~attr hom v
      end
  | c ->
    let memo = match c with Det _ -> Some (Crypto.Det.make_cache ()) | _ -> None in
    fun ~rng ~row:_ (v [@secret]) -> encode_value ?memo ~rng ~attr c v

let decrypt_value t ~attr v =
  match Value.to_const v with
  | None -> Ok v
  | Some c -> Result.map Value.of_const (decode t (cipher t ~attr) c)

(* ---- key rotation ---- *)

let rotate_query ~old_enc ~new_enc q =
  match decrypt_query old_enc q with
  | Error e -> Error ("rotation: " ^ e)
  | Ok plain -> Ok (encrypt_query new_enc plain)

let rotate_log ~old_enc ~new_enc log =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | q :: rest ->
      (match rotate_query ~old_enc ~new_enc q with
       | Ok q' -> go (q' :: acc) rest
       | Error e -> Error e)
  in
  go [] log

let encrypt_result_tuple t provenance tuple =
  if List.length provenance <> List.length tuple then
    err "provenance/tuple arity mismatch";
  List.map2
    (fun prov v ->
      match prov with
      | Minidb.Executor.Pattr (_, col) -> encrypt_value t ~attr:col v
      | Minidb.Executor.Pagg (Ast.Count, _) -> v
      | Minidb.Executor.Pagg ((Ast.Min | Ast.Max), Some (_, col)) ->
        encrypt_value t ~attr:col v
      | Minidb.Executor.Pagg ((Ast.Min | Ast.Max), None) ->
        err "MIN/MAX without argument"
      | Minidb.Executor.Pagg ((Ast.Sum | Ast.Avg), _) ->
        err "SUM/AVG output needs the homomorphic client round-trip")
    provenance tuple

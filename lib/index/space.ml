module F = Distance.Features
module M = Distance.Measure

type kind = Token | Structure | Edit | Clause

type t = {
  feats : F.t;
  kind : kind;
  n : int;
}

(* probe/prune accounting shared by both indexes — the raw material of an
   Enc²DB-style cost model: probes = distance evaluations spent inside
   index queries, prunes = BK subtrees discarded by the triangle bound
   or prefix candidates discarded by the size filter *)
let m_builds = Obs.Registry.counter "kitdpe.index.builds"
let m_build = Obs.Registry.sketch "kitdpe.index.build"
let m_queries = Obs.Registry.counter "kitdpe.index.queries"
let m_probes = Obs.Registry.counter "kitdpe.index.probes"
let m_prunes = Obs.Registry.counter "kitdpe.index.prunes"

let kind_of_measure = function
  | M.Token -> Some Token
  | M.Structure -> Some Structure
  | M.Edit -> Some Edit
  | M.Clause -> Some Clause
  (* access mixes interval overlap with a tuning exponent and result
     depends on database content: neither is a Jaccard distance of
     interned sets or comes with a metric to route on *)
  | M.Access | M.Result -> None

let supported m = kind_of_measure m <> None

let of_measure m feats =
  match kind_of_measure m with
  | None -> None
  | Some kind -> Some { feats; kind; n = F.length feats }

let of_kind kind feats = { feats; kind; n = F.length feats }

let size t = t.n

let is_int_metric t = t.kind = Edit

(* the measure value itself: what the brute-force scan compares against
   eps *)
let dist t i j =
  match t.kind with
  | Token -> F.token t.feats i j
  | Structure -> F.structure t.feats i j
  | Clause -> F.clause t.feats i j
  | Edit -> F.edit t.feats i j

let within t ~eps i j = dist t i j <= eps

let int_dist t i j =
  match t.kind with
  | Edit -> F.edit_distance_int t.feats i j
  | Token | Structure | Clause ->
    invalid_arg "Index.Space.int_dist: edit space required"

let len t i = match t.kind with Edit -> F.edit_len t.feats i | _ -> 0

let set t i =
  match t.kind with
  | Token -> F.token_set t.feats i
  | Structure -> F.structure_set t.feats i
  | Clause -> F.clause_projection t.feats i
  | Edit -> invalid_arg "Index.Space.set: Jaccard-family space required"

(* clause = (wp*dp + wg*dg + ws*ds) / W with every term non-negative, so
   clause <= eps gives dp <= eps * W / wp *)
let set_eps t ~eps =
  match t.kind with
  | Clause ->
    let { Distance.D_clause.w_projection; w_group_by; w_selection } =
      Distance.D_clause.default_weights
    in
    eps *. (w_projection +. w_group_by +. w_selection) /. w_projection
  | Token | Structure | Edit -> eps

(* The one index build: the ["index.build"] injection point once per
   point id, keyed by the id so an armed trigger picks the same victims
   for every pool size, then [f] over all ids, timed. *)
let build ~name t f =
  if Fault.enabled () then
    for i = 0 to t.n - 1 do
      Fault.point ~key:i "index.build"
    done;
  Obs.Metric.incr m_builds;
  Obs.Span.with_span ~sketch:m_build ~cat:"index"
    (Printf.sprintf "%s.build(n=%d)" name t.n)
    (fun () -> f (Array.init t.n Fun.id))

type stats = { probes : int; prunes : int }

let count_query ~probes ~prunes =
  if Obs.is_enabled () then begin
    Obs.Metric.incr m_queries;
    Obs.Metric.add m_probes probes;
    Obs.Metric.add m_prunes prunes
  end;
  { probes; prunes }

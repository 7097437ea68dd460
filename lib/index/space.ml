module F = Distance.Features
module M = Distance.Measure

type kind = Token | Structure | Edit | Clause

(* [log_n] is the number of queries of the log the space came from:
   [n] itself, except on a space of class representatives *)
type t = {
  feats : F.t;
  kind : kind;
  n : int;
  log_n : int;
  classes : F.classes option;
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

let of_kind kind feats =
  let n = F.length feats in
  { feats; kind; n; log_n = n; classes = None }

let of_measure m feats =
  Option.map
    (fun kind -> { (of_kind kind feats) with classes = Some (M.classes m feats) })
    (kind_of_measure m)

let size t = t.n

let classes t = t.classes

let representatives t (c : F.classes) =
  { t with feats = F.sub t.feats c.reps; n = Array.length c.reps; classes = None }

let is_int_metric t = t.kind = Edit

(* the measure value itself: what the brute-force scan compares against
   eps; staged like [F.edit], which builds [i]'s pattern once *)
let dist t i =
  match t.kind with
  | Token -> F.token t.feats i
  | Structure -> F.structure t.feats i
  | Clause -> F.clause t.feats i
  | Edit -> F.edit t.feats i

let within t ~eps i =
  let d = dist t i in
  fun j -> d j <= eps

let int_dist t i =
  match t.kind with
  | Edit -> F.edit_distance_int t.feats i
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
    let open Distance.D_clause in
    eps *. (w_projection +. w_group_by +. w_selection) /. w_projection
  | Token | Structure | Edit -> eps

(* The one index build: the ["index.build"] injection point once per
   query of the log, keyed by the query index so an armed trigger picks
   the same victims for every pool size and whether or not the index
   holds every query, then [f] over all ids, timed. *)
let build ~name t f =
  if Fault.enabled () then
    for i = 0 to t.log_n - 1 do
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

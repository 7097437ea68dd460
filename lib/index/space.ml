module F = Distance.Features
module M = Distance.Measure

(* [log_n] is the number of queries of the log the space came from:
   its size, except on a space of class representatives *)
type t = {
  feats : F.table;
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

(* access mixes interval overlap with a tuning exponent and result
   depends on database content: neither is a Jaccard distance of
   interned sets or comes with a metric to route on *)
let index_key m = match M.key_of m with Some F.Areas | None -> None | key -> key

let supported m = index_key m <> None

let space key log =
  let feats = Fault.Error.get_ok (F.table_r key log) in
  { feats; log_n = F.length feats; classes = None }

let flat m log =
  match index_key m with
  | Some key -> space key log
  | None -> invalid_arg ("Index.Space.flat: no index for " ^ M.to_string m)

let of_measure m log =
  Option.map
    (fun key ->
      let t = space key log in
      { t with classes = Some (F.classes t.feats) })
    (index_key m)

let size t = F.length t.feats

let classes t = t.classes

let representatives t (c : F.classes) =
  { t with feats = F.sub t.feats c.reps; classes = None }

let is_int_metric t = F.key t.feats = F.Edit_tokens

(* the measure value itself: what the brute-force scan compares against
   eps; staged like [F.eval], which builds [i]'s edit pattern once.  No
   access space exists, so the access weight is never read. *)
let within t ~eps i =
  let d = F.eval ~x:Distance.D_access.default_x t.feats i in
  fun j -> d j <= eps

let int_dist t i = F.edit_distance_int t.feats i
let len t i = F.len t.feats i
let set t i = F.set t.feats i

(* clause = (wp*dp + wg*dg + ws*ds) / W with every term non-negative, so
   clause <= eps gives dp <= eps * W / wp *)
let set_eps t ~eps =
  if F.key t.feats = F.Clause_sets then
    let open Distance.D_clause in
    eps *. (w_projection +. w_group_by +. w_selection) /. w_projection
  else eps

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
    (Printf.sprintf "%s.build(n=%d)" name (size t))
    (fun () -> f (Array.init (size t) Fun.id))

type stats = { probes : int; prunes : int }

let count_query ~probes ~prunes =
  if Obs.is_enabled () then begin
    Obs.Metric.incr m_queries;
    Obs.Metric.add m_probes probes;
    Obs.Metric.add m_prunes prunes
  end;
  { probes; prunes }

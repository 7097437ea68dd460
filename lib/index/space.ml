module F = Distance.Features
module M = Distance.Measure

type kind = Token | Structure | Edit | Clause

type t = {
  feats : F.t;
  kind : kind;
  n : int;
}

(* probe/prune accounting shared by both trees — the raw material of an
   Enc²DB-style cost model: probes = distance evaluations spent inside
   index queries, prunes = subtrees discarded by the triangle bound *)
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
     depends on database content: neither comes with the triangle
     inequality the pruning bound needs *)
  | M.Access | M.Result -> None

let supported m = kind_of_measure m <> None

let of_measure m feats =
  match kind_of_measure m with
  | None -> None
  | Some kind -> Some { feats; kind; n = F.length feats }

let of_kind kind feats = { feats; kind; n = F.length feats }

let size t = t.n

let is_int_metric t = t.kind = Edit

(* the metric the trees route on.  For the Jaccard-family measures it is
   the query distance itself (a proven metric).  For edit it is the raw
   integer Levenshtein distance (unquestionably a metric) — exactness
   then never rests on the normalized distance satisfying the triangle
   inequality, which it is not relied upon to do. *)
let tree_dist t i j =
  match t.kind with
  | Token -> F.token t.feats i j
  | Structure -> F.structure t.feats i j
  | Clause -> F.clause t.feats i j
  | Edit -> float_of_int (F.edit_distance_int t.feats i j)

let int_dist t i j =
  match t.kind with
  | Edit -> F.edit_distance_int t.feats i j
  | Token | Structure | Clause ->
    invalid_arg "Index.Space.int_dist: edit space required"

let len t i = match t.kind with Edit -> F.edit_len t.feats i | _ -> 0

(* exact membership — decides exactly what the brute-force scan decides.
   The set measures compare the measure value itself; edit delegates to
   the banded kernel, whose decision is specified (and property-tested)
   to equal [F.edit t i j <= eps]. *)
let within t ~eps i j =
  match t.kind with
  | Token -> F.token t.feats i j <= eps
  | Structure -> F.structure t.feats i j <= eps
  | Clause -> F.clause t.feats i j <= eps
  | Edit -> F.edit_within t.feats ~eps i j

(* membership decided from an already-computed tree distance, so a node
   whose vantage distance is in hand is not probed twice.  Bit-identical
   to [within]: the set measures reuse the identical [<= eps] test, and
   for edit [d] is the exact integer Levenshtein value, so the division
   below is the very expression [F.edit] evaluates. *)
let member_of_tree_dist t ~eps ~qlen j d =
  match t.kind with
  | Token | Structure | Clause -> d <= eps
  | Edit ->
    let nl = max qlen (F.edit_len t.feats j) in
    if nl = 0 then 0.0 <= eps else d /. float_of_int nl <= eps

(* Sound pruning radius in the tree metric for a subtree whose members'
   edit lengths are all <= [sublen].

   Set measures: membership means d(q,j) <= eps on correctly-rounded
   Jaccard values; the 1e-9 slack absorbs the few-ulp gap between the
   computed values and the real ones the triangle inequality holds for.

   Edit: membership means lev(q,j) / max(qlen, len j) <= eps, hence
   lev(q,j) <= eps * max(qlen, sublen) in the reals; tree distances are
   exact integers, and the 0.5 slack dominates any rounding of the
   eps * length product (integers differ by >= 1). *)
let radius t ~eps ~qlen ~sublen =
  match t.kind with
  | Token | Structure | Clause -> eps +. 1e-9
  | Edit -> (eps *. float_of_int (max qlen sublen)) +. 0.5

(* The one tree build: the ["index.build"] injection point once per
   point id, keyed by the id so an armed trigger picks the same victims
   for every pool size, then [f] over all ids, timed. *)
let build ~name t f =
  if Fault.enabled () then
    for i = 0 to t.n - 1 do
      Fault.point ~key:i "index.build"
    done;
  let t0 = Obs.time_start () in
  let tree = f (Array.init t.n Fun.id) in
  if t0 > 0 then begin
    let dt = Obs.now_ns () - t0 in
    Obs.Metric.incr m_builds;
    Obs.observe_latency m_build dt;
    Obs.Span.record ~cat:"index"
      ~name:(Printf.sprintf "%s.build(n=%d)" name t.n)
      ~ts_ns:t0 ~dur_ns:dt ()
  end;
  tree

let count_query ~probes ~prunes =
  if Obs.is_enabled () then begin
    Obs.Metric.incr m_queries;
    Obs.Metric.add m_probes probes;
    Obs.Metric.add m_prunes prunes
  end

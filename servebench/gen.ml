(* Workloads and their deterministic request streams.

   Every plaintext input is a pure function of the workload seed and a
   request index, drawn from [Workload.Gen_query]; the server only ever
   receives the generated SQL text.  Ciphertext logs for the mine
   workloads are produced by the server itself during set-up. *)

module M = Distance.Measure
module G = Workload.Gen_query

type workload = Encrypt | Mine | Mine_index | Mixed

let workloads = [ Encrypt; Mine; Mine_index; Mixed ]

let workload_to_string = function
  | Encrypt -> "encrypt"
  | Mine -> "mine"
  | Mine_index -> "mine-index"
  | Mixed -> "mixed"

let workload_of_string s =
  List.find_opt (fun w -> workload_to_string w = s) workloads

let sends_encrypt = function Encrypt | Mixed -> true | Mine | Mine_index -> false

let templates = 6

let plain_log ~seed ~measure n =
  G.skyserver_log { G.n; templates; seed; caps = G.caps_for_measure measure }

let sql log = List.map Sqlir.Printer.to_string log

(* ---- encrypt stream ---- *)

let enc_measures = [| M.Token; M.Structure; M.Access; M.Result |]
let tenants = [| "t0"; "t1"; "t2"; "t3" |]
let enc_queries = 64

(* one cycle visits every (tenant, measure) pair once, measure fastest *)
let enc_cycle = Array.length enc_measures * Array.length tenants

type enc_req = { tenant : string; measure : M.t; queries : string list }

let enc_measure i = enc_measures.(i mod Array.length enc_measures)

let enc_req ~seed ~stream i =
  let measure = enc_measure i in
  let tenant = tenants.(i / Array.length enc_measures mod Array.length tenants) in
  let seed = Printf.sprintf "%s/%s/%d" seed stream i in
  { tenant; measure; queries = sql (plain_log ~seed ~measure enc_queries) }

(* the first request per (tenant, measure): fixes the pair's scheme and
   warms its caches during set-up *)
let warmup ~seed = List.init enc_cycle (enc_req ~seed ~stream:"warmup")

let encrypt ~seed i = enc_req ~seed ~stream:"encrypt" i

(* ---- mine streams ---- *)

type mine_log = { m_measure : M.t; n : int }

type mine_req = {
  log : int;  (** index into the workload's ciphertext logs *)
  algo : string;
  k : int;
  eps : float;
  engine : string option;
}

let mine_measures = [| M.Edit; M.Token; M.Structure; M.Access |]
let mine_algos = [| "clink"; "kmedoids"; "dbscan"; "outliers" |]
let mine_cycle = Array.length mine_measures * Array.length mine_algos

(* the tenant the server encrypts the mine logs under, distinct from the
   encrypt loop's tenants so the two loops share no cached state *)
let miner = "miner"

let mine_logs = function
  | Mine | Mixed -> Array.map (fun m -> { m_measure = m; n = 300 }) mine_measures
  | Mine_index -> [| { m_measure = M.Edit; n = 1000 }; { m_measure = M.Token; n = 2000 } |]
  | Encrypt -> [||]

(* A mine log is [n] queries drawn by the seed from a fixed pool of
   [2n]: the pool's templates (and so its query shapes, lengths and
   cluster sizes) are the same for every seed, so a run's cost does not
   swing with which six templates a seed happens to draw. *)
let mine_plain ~seed { m_measure; n } =
  let name = Printf.sprintf "%s/%d" (M.to_string m_measure) n in
  let pool = Array.of_list (plain_log ~seed:("pool/" ^ name) ~measure:m_measure (2 * n)) in
  let rng = Crypto.Drbg.create ~seed:(Printf.sprintf "%s/mine/%s" seed name) in
  let len = Array.length pool in
  for i = 0 to n - 1 do
    let j = i + Crypto.Drbg.uniform_int rng (len - i) in
    let t = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- t
  done;
  sql (Array.to_list (Array.sub pool 0 n))

(* mine-index sends edit, token, token: an edit request (n=1000) takes
   about four times as long as a token one (n=2000), so with this mix
   the median sits inside the token requests and p90 inside the edit
   ones, instead of on the gap between two equal halves *)
let index_pattern = [| 0; 1; 1 |]

let mine_cycle_of = function Mine_index -> Array.length index_pattern | _ -> mine_cycle

let mine = function
  | Mine_index ->
    fun j ->
      { log = index_pattern.(j mod Array.length index_pattern); algo = "dbscan"; k = 0;
        eps = 0.1; engine = Some "index" }
  | _ ->
    fun j ->
      { log = j mod Array.length mine_measures;
        algo = mine_algos.(j / Array.length mine_measures mod Array.length mine_algos);
        k = templates;
        eps = 0.3;
        engine = Some "matrix" }

(* ---- wire form ---- *)

let request ~id ~op ~tenant ~measure ?(algo = "") ?(k = 0) ?(eps = 0.) ?engine queries =
  Server.Proto.request_to_json
    { Server.Proto.id; op; tenant; measure; algo; k; eps; deadline_ms = None;
      retries = 0; engine; queries }

let encrypt_json ~id (r : enc_req) =
  request ~id ~op:Server.Proto.Encrypt ~tenant:r.tenant ~measure:r.measure r.queries

let mine_json ~id ~(logs : mine_log array) ~(cipher : string list array) (r : mine_req) =
  request ~id ~op:Server.Proto.Mine ~tenant:miner ~measure:logs.(r.log).m_measure
    ~algo:r.algo ~k:r.k ~eps:r.eps ?engine:r.engine cipher.(r.log)

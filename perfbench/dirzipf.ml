(* dir-zipf: the routing directory under a skewed name-lookup stream.

   A Topo.Graph.hierarchical_internet of depth 3 (branching 5, 20k hosts;
   the topology is fixed, the seed only drives inputs) with every host
   name registered. One caller issues k = 1 queries from 8 client nodes
   for targets drawn zipf(s = 1.1) over a seeded popularity order. Half
   way through, one load report changes a link's utilization and so
   bumps the route epoch: reads and an invalidating write in one
   stream. The whole stream is drawn during set-up; the timed phase is
   only Directory.query calls. *)

module G = Topo.Graph
module D = Dirsvc.Directory
module M = Measure

let hosts_n = 20_000
let clients_n = 8
let zipf_s = 1.1
let topology_seed = 0xd1ecL

type t = {
  g : G.t;
  dir : D.t;
  hosts : G.node_id array;
  names : Dirsvc.Name.t array;
  clients : G.node_id array;
  q_client : int array;  (** index into [clients] *)
  q_target : int array;  (** index into [names] *)
  report_at : int;
  report_link : int;
  rtt_ns : int array;  (** rtt_estimate of each answer *)
  mutable empty : int;
  hit_ns : float array;  (** traced runs: per-query host time, by cache outcome *)
  miss_ns : float array;
  mutable hits : int;
  mutable misses : int;
}

let topology () =
  G.hierarchical_internet ~rng:(Sim.Rng.create topology_seed) ~branching:5 ~depth:3
    ~hosts:hosts_n ()

let register dir g hosts =
  Array.map
    (fun h ->
      let name = Dirsvc.Name.of_string (G.name g h) in
      D.register dir ~name ~node:h;
      name)
    hosts

let build ~seed ~queries =
  let g, _, hosts = topology () in
  let dir = D.create g in
  let names = register dir g hosts in
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let n = Array.length names in
  let rank_to_name = Array.init n (fun i -> i) in
  Sim.Rng.shuffle rng rank_to_name;
  let clients = Array.init clients_n (fun _ -> hosts.(Sim.Rng.int rng n)) in
  let zipf = Workload.Zipf.create rng ~n ~s:zipf_s in
  let q_target = Array.init queries (fun _ -> rank_to_name.(Workload.Zipf.draw zipf)) in
  (* a client asking for its own name has no route to get; such a draw
     goes to the next client *)
  let q_client =
    Array.map
      (fun target ->
        let c = Sim.Rng.int rng clients_n in
        if clients.(c) = hosts.(target) then (c + 1) mod clients_n else c)
      q_target
  in
  let traced = Spans.enabled () in
  {
    g;
    dir;
    hosts;
    names;
    clients;
    q_client;
    q_target;
    report_at = queries / 2;
    report_link = Sim.Rng.int rng (List.length (G.links g));
    rtt_ns = Array.make queries 0;
    empty = 0;
    hit_ns = (if traced then Array.make queries 0.0 else [||]);
    miss_ns = (if traced then Array.make queries 0.0 else [||]);
    hits = 0;
    misses = 0;
  }

let utilization = 0.5

let answer t q =
  match D.query t.dir ~client:t.clients.(t.q_client.(q)) ~target:t.names.(t.q_target.(q)) ~k:1 () with
  | [] -> t.empty <- t.empty + 1
  | r :: _ -> t.rtt_ns.(q) <- r.D.attrs.D.rtt_estimate

let span_query = Spans.name "dir.query"
let span_report = Spans.name "dir.report_load"

let run t =
  let traced = Spans.enabled () in
  for q = 0 to Array.length t.q_client - 1 do
    if q = t.report_at then
      Spans.with_span span_report ~id:q (fun () ->
          D.report_load t.dir ~link_id:t.report_link ~utilization);
    if traced then begin
      let h0 = D.cache_hits t.dir in
      let s = Spans.enter span_query ~id:q in
      answer t q;
      Spans.leave s;
      let dur = Spans.duration s in
      if D.cache_hits t.dir > h0 then begin
        t.hit_ns.(t.hits) <- dur;
        t.hits <- t.hits + 1
      end
      else begin
        t.miss_ns.(t.misses) <- dur;
        t.misses <- t.misses + 1
      end
    end
    else answer t q
  done

let strip infos = List.map (fun (r : D.route_info) -> (r.D.hops, r.D.attrs)) infos

(* Memoized answers must equal a cold directory's (both caches off, so
   every query runs its own Dijkstra) at the same epoch. The sample is
   drawn from the stream after the load report. *)
let check_against_cold ~seed t =
  let cold = D.create ~answer_cache:0 ~spt_cache:0 t.g in
  ignore (register cold t.g t.hosts);
  D.report_load cold ~link_id:t.report_link ~utilization;
  let rng = Sim.Rng.create (Int64.of_int (seed + 99)) in
  let total = Array.length t.q_client in
  let samples = min 24 (total - t.report_at) in
  let bad = ref 0 in
  for _ = 1 to samples do
    let q = t.report_at + Sim.Rng.int rng (total - t.report_at) in
    let client = t.clients.(t.q_client.(q)) and target = t.names.(t.q_target.(q)) in
    let memo = D.query t.dir ~client ~target ~k:1 () in
    let fresh = D.query cold ~client ~target ~k:1 () in
    if strip memo <> strip fresh then incr bad
  done;
  M.check "dir.memoized_equals_cold" (samples > 0 && !bad = 0)
    (Printf.sprintf "%d sampled, %d differ" samples !bad)

let checks t =
  M.check "dir.no_empty_answers" (t.empty = 0)
    (Printf.sprintf "%d empty of %d" t.empty (Array.length t.q_client))

let rep ~seed ~queries =
  let t, (), r =
    M.rep ~build:(fun () -> build ~seed ~queries) ~run
      ~ops:(fun t -> Array.length t.q_client - t.empty)
  in
  (t, r)

let queries_for (cfg : M.config) = if cfg.M.tiny then 2_000 else 50_000

let untraced (cfg : M.config) =
  let queries = queries_for cfg in
  let ok = ref true and attempted = ref 0 and failed_ = ref 0 in
  let reps =
    M.repeat ~seconds:cfg.M.seconds ~min_reps:3 (fun i ->
        let t, r = rep ~seed:cfg.M.seed ~queries in
        ok := !ok && checks t;
        if i = 0 then ok := !ok && check_against_cold ~seed:cfg.M.seed t;
        attempted := !attempted + queries;
        failed_ := !failed_ + t.empty;
        r)
  in
  { M.correct = !ok; attempted = !attempted; failed = !failed_; metrics = M.end_to_end reps }

let traced (cfg : M.config) =
  let seed = cfg.M.seed and queries = queries_for cfg in
  let pairs = if cfg.M.tiny then 1 else 2 in
  let runs =
    List.init pairs (fun _ ->
        Spans.set_enabled false;
        let tu, ru = rep ~seed ~queries in
        Spans.set_enabled true;
        Spans.reset ();
        let tt, rt = rep ~seed ~queries in
        Spans.set_enabled false;
        (tu, ru, tt, rt))
  in
  let tu, ru, tt, _ = List.nth runs (pairs - 1) in
  let ok = checks tu && checks tt && check_against_cold ~seed tu in
  let overhead = M.median (List.map (fun (_, ru, _, rt) -> rt.M.wall_s /. ru.M.wall_s) runs) in
  let all = Spans.durations span_query in
  let us a n = M.percentile (Array.sub a 0 n) 0.5 /. 1e3 in
  let rtts = Array.map (fun ns -> float_of_int ns /. 1e3) tu.rtt_ns in
  Spans.set_enabled true;
  let metric = D.route_metric tu.dir D.Lowest_delay in
  let spt =
    Layers.loop_cost ~span:"replay.spt" ~units:clients_n (fun () ->
        Array.iter (fun src -> ignore (G.shortest_path_tree tu.g ~metric ~src)) tu.clients)
  in
  Spans.set_enabled false;
  let served = D.queries_served tu.dir in
  let metrics =
    M.
      [
        metric "dirsvc.hit_ratio" "" (ratio_i (D.cache_hits tu.dir) served);
        metric ~samples:tt.hits "dirsvc.hit_us_p50" "" (us tt.hit_ns tt.hits);
        metric ~samples:tt.misses "dirsvc.miss_us_p50" "" (us tt.miss_ns tt.misses);
        metric ~samples:(Array.length all) "dirsvc.query_us_p50" "" (percentile all 0.5 /. 1e3);
        metric ~samples:(Array.length all) "dirsvc.query_us_p99" "" (percentile all 0.99 /. 1e3);
        metric "dirsvc.spt_builds" "" (float_of_int (D.spt_builds tu.dir));
        metric ~samples:clients_n "topo.ms_per_spt" "" (spt.Layers.ns /. 1e6);
        metric "dirsvc.words_per_query" "" (ru.M.words /. float_of_int (max 1 ru.M.ops));
        metric "dirsvc.cache_entries" "" (float_of_int (D.cache_entries tu.dir));
        metric ~samples:(Array.length rtts) "fidelity.sim_latency_us_p50" "" (percentile rtts 0.5);
        metric ~samples:(Array.length rtts) "fidelity.sim_latency_us_p99" "" (percentile rtts 0.99);
        metric ~samples:pairs "trace.overhead_ratio" "" overhead;
      ]
  in
  ( { M.correct = ok; attempted = 2 * queries; failed = tu.empty + tt.empty; metrics },
    fun id -> id land 63 = 0 )

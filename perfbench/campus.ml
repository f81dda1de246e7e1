(* vmtp-campus: VMTP transactions across a campus internetwork.

   A Topo.Graph.campus_internet ring (10 Mb/s campus links, 45 Mb/s
   trunks; the topology itself is fixed, the seed only drives inputs).
   Twelve client hosts each run a closed loop against a server on a
   campus three hops around the ring: query the directory for two
   routes (k = 2), call with a 4 KiB request, and only when that call
   has finished wait a seeded think time and start the next. Replies are
   1 KiB, a deterministic function of the request, and the client
   checks every one. Faults: seeded bit errors on one trunk and one
   scheduled failure and repair of another. The flight recorder samples
   1 packet in 16. *)

module G = Topo.Graph
module W = Netsim.World
module H = Sirpent.Host
module D = Dirsvc.Directory
module E = Vmtp.Entity
module M = Measure

let campuses = 6
let hosts_per_campus = 4
let clients = 12
let request_bytes = 4096
let reply_bytes = 1024
let think_mean_ns = 1e6
let topology_seed = 0x5eedL

type t = {
  engine : Sim.Engine.t;
  world : W.t;
  g : G.t;
  routers : Sirpent.Router.t list;
  hosts : H.t array;
  entities : E.t array;  (** clients first, then their servers *)
  injector : Faults.Injector.t;
  mutable issued : int;
  mutable completed : int;
  mutable failed : int;
  mutable wrong : int;
  mutable depth_max : int;
  rtts : int list ref;
}

(* The server's deterministic answer: byte i mixes request bytes 4i and
   4i+3 with i. *)
let answer req =
  Bytes.init reply_bytes (fun i ->
      Char.chr
        ((Char.code (Bytes.get req (4 * i)) lxor Char.code (Bytes.get req ((4 * i) + 3)) + i)
        land 255))

let request key ~client ~seq =
  let b = Bytes.create request_bytes in
  let base = M.mix (key + (client lsl 40) + (seq lsl 12)) in
  for j = 0 to (request_bytes / 8) - 1 do
    Bytes.set_int64_le b (8 * j) (Int64.of_int (M.mix (base + j)))
  done;
  b

let span_query = Spans.name "dir.query"
let span_call = Spans.name "vmtp.call"
let span_check = Spans.name "bench.reply_check"
let span_run = Spans.name "engine.run"

let trunks g =
  List.filter (fun (l : G.link) -> G.kind g l.G.a = G.Router && G.kind g l.G.b = G.Router) (G.links g)

let build ?(sample_every = 16) ~seed ~horizon () =
  let g, router_nodes, host_nodes =
    G.campus_internet ~rng:(Sim.Rng.create topology_seed) ~campuses ~hosts_per_campus
  in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  Telemetry.Flight.set_policy (W.flight world)
    { Telemetry.Flight.sample_every; capture_drops = true; capacity = 4096 };
  let routers =
    Array.to_list (Array.map (fun r -> Sirpent.Router.create world ~node:r ()) router_nodes)
  in
  let hosts = Array.map (fun h -> H.create world ~node:h) host_nodes in
  let dir = D.create g in
  (* client i (campus i mod 6) calls host 12 + (i + 3) mod 12, which
     sits on campus (i + 3) mod 6 *)
  let server_of i = clients + ((i + 3) mod clients) in
  let names =
    Array.init clients (fun i ->
        let s = server_of i in
        let name =
          Dirsvc.Name.of_string (Printf.sprintf "edu.campus%d.host%d" (s mod campuses) s)
        in
        D.register dir ~name ~node:host_nodes.(s);
        name)
  in
  let entities =
    Array.init (2 * clients) (fun i ->
        let h = if i < clients then i else server_of (i - clients) in
        E.create hosts.(h) ~id:(Int64.of_int (i + 1)))
  in
  for i = clients to (2 * clients) - 1 do
    E.set_request_handler entities.(i) (fun _ ~data ~reply -> reply (answer data))
  done;
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let injector = Faults.Injector.create ~seed:(Sim.Rng.bits64 rng) world in
  (match trunks g with
  | noisy :: _ :: _ :: flappy :: _ ->
    Faults.Injector.set_link_corruption injector ~link:noisy
      { Faults.Corrupt.ber = 2e-7; region = Faults.Corrupt.Payload };
    let at = (horizon / 3) + Sim.Rng.int rng (Sim.Time.ms 10) in
    Faults.Injector.fail_link_at injector ~at flappy;
    Faults.Injector.restore_link_at injector ~at:(at + Sim.Time.ms 40) flappy
  | _ -> failwith "vmtp-campus: expected a ring of at least four trunks");
  let t =
    {
      engine;
      world;
      g;
      routers;
      hosts;
      entities;
      injector;
      issued = 0;
      completed = 0;
      failed = 0;
      wrong = 0;
      depth_max = 0;
      rtts = ref [];
    }
  in
  let key = M.mix (seed + 7) in
  let traced = Spans.enabled () in
  let rec call i seq =
    if Sim.Engine.now engine < horizon then begin
      let p = Sim.Engine.pending engine in
      if p > t.depth_max then t.depth_max <- p;
      let id = (i lsl 32) + seq in
      t.issued <- t.issued + 1;
      let data = request key ~client:i ~seq in
      let sq = Spans.enter span_query ~id in
      let routes = D.query dir ~client:(H.node hosts.(i)) ~target:names.(i) ~k:2 () in
      Spans.leave sq;
      let next () =
        let think = Sim.Time.of_seconds (Sim.Rng.exponential rng ~mean:think_mean_ns *. 1e-9) in
        ignore (Sim.Engine.schedule engine ~delay:think (fun () -> call i (seq + 1)))
      in
      let on_reply reply ~rtt =
        let sc = if traced then Spans.enter span_check ~id else -1 in
        if Bytes.equal reply (answer data) then begin
          t.completed <- t.completed + 1;
          t.rtts := rtt :: !(t.rtts)
        end
        else t.wrong <- t.wrong + 1;
        Spans.leave sc;
        next ()
      in
      let on_fail _ =
        t.failed <- t.failed + 1;
        next ()
      in
      let sc = Spans.enter span_call ~id in
      E.call entities.(i) ~server:(Int64.of_int (clients + i + 1))
        ~routes:(List.map (fun (r : D.route_info) -> r.D.route) routes)
        ~data ~on_reply ~on_fail ();
      Spans.leave sc
    end
  in
  for i = 0 to clients - 1 do
    let start = Sim.Rng.int rng (Sim.Time.ms 5) in
    ignore (Sim.Engine.schedule_at engine ~time:start (fun () -> call i 0))
  done;
  t

(* Callers stop issuing at the horizon; the drain lets every open call
   finish or fail. *)
let run t =
  let s = Spans.enter span_run ~id:0 in
  Sim.Engine.run t.engine;
  Spans.leave s

let stats t = Array.map E.stats t.entities
let sum f t = Array.fold_left (fun a s -> a + f s) 0 (stats t)
let packets_sent t = sum (fun s -> s.E.packets_sent) t

let checks t =
  let ok1 =
    M.check "vmtp.replies_match_server" (t.wrong = 0)
      (Printf.sprintf "%d completed, %d wrong" t.completed t.wrong)
  in
  let ok2 =
    M.check "vmtp.completed_plus_failed_is_issued"
      (t.completed + t.failed + t.wrong = t.issued)
      (Printf.sprintf "%d + %d failed = %d issued" t.completed t.failed t.issued)
  in
  let ok3 =
    M.check "vmtp.entity_counts_agree"
      (sum (fun s -> s.E.calls_completed) t = t.completed + t.wrong
      && sum (fun s -> s.E.calls_failed) t = t.failed)
      "entity stats vs callbacks"
  in
  let st = Faults.Injector.stats t.injector in
  let ok4 =
    M.check "vmtp.faults_injected"
      (st.Faults.Injector.frames_corrupted > 0 && st.Faults.Injector.links_failed = 1
      && st.Faults.Injector.links_restored = 1)
      (Printf.sprintf "%d frames corrupted, %d link failures, %d repairs"
         st.Faults.Injector.frames_corrupted st.Faults.Injector.links_failed
         st.Faults.Injector.links_restored)
  in
  ok1 && ok2 && ok3 && ok4

let rtt_us t = Array.of_list (List.map Sim.Time.to_us !(t.rtts))

let counters t =
  let pt = Layers.port_totals t.g t.world in
  let rt = Layers.router_totals t.routers in
  let pkts = max 1 (packets_sent t) in
  let rtts = rtt_us t in
  M.
    [
      metric "sim.events_per_pkt" "" (ratio_i (Sim.Engine.executed t.engine) pkts);
      metric "sim.depth_max" "" (float_of_int t.depth_max);
      metric "world.frames_per_pkt" "" (ratio_i pt.Layers.frames pkts);
      metric "world.queue_max" "" pt.Layers.queue_max;
      metric "world.drops" "" (float_of_int (pt.Layers.drops + W.undelivered t.world));
      metric "world.trunk_util_max" "" pt.Layers.router_util_max;
      metric "viper.wire_bytes_per_pkt" "" (ratio_i pt.Layers.bytes pkts);
      metric "router.cut_through_ratio" "" (ratio_i rt.Layers.cut_throughs rt.Layers.forwarded);
      metric "router.drops" "" (float_of_int rt.Layers.drops);
      metric "host.misdelivered" ""
        (float_of_int (Array.fold_left (fun a h -> a + H.misdelivered h) 0 t.hosts));
      metric "vmtp.pkts_per_txn" "" (ratio_i pkts t.completed);
      metric "vmtp.retransmit_ratio" "" (ratio_i (sum (fun s -> s.E.retransmits) t) pkts);
      metric "vmtp.route_switches" "" (float_of_int (sum (fun s -> s.E.route_switches) t));
      metric "faults.corrupted" ""
        (float_of_int (Faults.Injector.stats t.injector).Faults.Injector.frames_corrupted);
      metric "telemetry.flights_recorded" ""
        (float_of_int (Telemetry.Flight.recorded (W.flight t.world)));
      metric ~samples:(Array.length rtts) "fidelity.sim_latency_us_p50" "" (percentile rtts 0.5);
      metric ~samples:(Array.length rtts) "fidelity.sim_latency_us_p99" "" (percentile rtts 0.99);
    ]

let rep ?sample_every ~seed ~horizon () =
  let t, (), r =
    M.rep ~build:(fun () -> build ?sample_every ~seed ~horizon ()) ~run ~ops:(fun t -> t.completed)
  in
  (t, r)

let horizon_for (cfg : M.config) = if cfg.M.tiny then Sim.Time.s 2 else Sim.Time.s 4

let untraced (cfg : M.config) =
  let horizon = horizon_for cfg in
  let ok = ref true and attempted = ref 0 and failed_ = ref 0 in
  let reps =
    M.repeat ~seconds:cfg.M.seconds ~min_reps:3 (fun _ ->
        let t, r = rep ~seed:cfg.M.seed ~horizon () in
        ok := !ok && checks t;
        attempted := !attempted + t.issued;
        failed_ := !failed_ + t.failed + t.wrong;
        r)
  in
  { M.correct = !ok; attempted = !attempted; failed = !failed_; metrics = M.end_to_end reps }

(* The router that forwarded most, and a world holding only it. *)
let busiest t =
  let best = ref (List.hd t.routers) in
  List.iter
    (fun r ->
      if (Sirpent.Router.stats r).Sirpent.Router.forwarded
         > (Sirpent.Router.stats !best).Sirpent.Router.forwarded
      then best := r)
    t.routers;
  Sirpent.Router.node !best

let router_world node () =
  let g, _, _ =
    G.campus_internet ~rng:(Sim.Rng.create topology_seed) ~campuses ~hosts_per_campus
  in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  G.iter_nodes g (fun n ->
      W.set_handler world n (fun _ ~in_port:_ ~frame:_ ~head:_ ~tail:_ -> ()));
  ignore (Sirpent.Router.create world ~node ());
  (engine, world, node)

let traced (cfg : M.config) =
  let seed = cfg.M.seed in
  let horizon = horizon_for cfg in
  let pairs = if cfg.M.tiny then 1 else 3 in
  let runs =
    List.init pairs (fun _ ->
        Spans.set_enabled false;
        let tu, ru = rep ~seed ~horizon () in
        let toff, roff = rep ~sample_every:0 ~seed ~horizon () in
        Spans.set_enabled true;
        Spans.reset ();
        let tt, rt = rep ~seed ~horizon () in
        Spans.set_enabled false;
        (tu, ru, (toff, roff), (tt, rt)))
  in
  let tu, _, (toff, _), (tt, _) = List.nth runs (pairs - 1) in
  let ok = checks tu && checks toff && checks tt in
  let overhead =
    M.median (List.map (fun (_, ru, _, (_, rt)) -> rt.M.wall_s /. ru.M.wall_s) runs)
  in
  let telemetry_ns =
    M.median
      (List.map
         (fun (tu, ru, (_, roff), _) ->
           1e9 *. (ru.M.wall_s -. roff.M.wall_s) /. float_of_int (max 1 (packets_sent tu)))
         runs)
  in
  let aggs = Spans.aggregate () in
  let call_ns = Spans.mean_self_ns aggs "vmtp.call" in
  Spans.set_enabled true;
  let heap = Layers.heap ~seed ~depth:tu.depth_max ~ops:(if cfg.M.tiny then 1000 else 300_000) in
  let pt = Layers.port_totals tu.g tu.world in
  let frame_bytes = pt.Layers.bytes / max 1 pt.Layers.frames in
  let world =
    Layers.world_link ~props:G.default_props ~frame_bytes
      ~frames:(if cfg.M.tiny then 1000 else 100_000)
  in
  let node = busiest tu in
  let cap_t = build ~seed ~horizon:(Sim.Time.ms 200) () in
  let cap_router = List.find (fun r -> Sirpent.Router.node r = node) cap_t.routers in
  let cap = Layers.capture cap_t.world ~node cap_router ~max:1024 in
  run cap_t;
  let frames = Layers.captured cap in
  let viper_pkts, _ = Layers.split_formats frames in
  let ops = if cfg.M.tiny then 1000 else 100_000 in
  let viper = Layers.viper_hop ~packets:viper_pkts ~ops in
  let router = Layers.router_hop ~build:(router_world node) ~frames ~ops:(ops / 4) in
  Spans.set_enabled false;
  let metrics =
    counters tu
    @ M.
        [
          metric "sim.ns_per_event" "" heap.Layers.ns;
          metric "sim.words_per_event" "" heap.Layers.words;
          metric "world.ns_per_frame" "" world.Layers.ns;
          metric "world.words_per_frame" "" world.Layers.words;
          metric ~samples:(Array.length viper_pkts) "viper.ns_per_hop" "" viper.Layers.ns;
          metric "viper.words_per_hop" "" viper.Layers.words;
          metric ~samples:(Array.length frames) "router.ns_per_hop" "" router.Layers.ns;
          metric "router.words_per_hop" "" router.Layers.words;
          metric ~samples:tt.issued "vmtp.ns_per_call" "" call_ns;
          metric ~samples:pairs "telemetry.ns_per_pkt" "" telemetry_ns;
          metric ~samples:pairs "trace.overhead_ratio" "" overhead;
        ]
  in
  ( {
      M.correct = ok;
      attempted = tu.issued + toff.issued + tt.issued;
      failed = tu.failed + tu.wrong + toff.failed + toff.wrong + tt.failed + tt.wrong;
      metrics;
    },
    fun _ -> true )

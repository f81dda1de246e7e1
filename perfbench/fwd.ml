(* fwd-saturate: E24's saturation star. 16 feeder hosts each reach one
   router over their own link, and the router reaches the sink over 16
   parallel links. Links are so fast (10^15 b/s) that transmission is
   1 ns: the simulator's per-packet work, not the physics, sets the
   pace. Even feeders send VIPER source routes (Host.send), odd feeders
   XSR headers (Host.send_xsr). Every injection is scheduled before the
   timed phase starts: an open-loop backlog of one event per packet, at
   seeded times, on a world with default World.create settings.

   Payload (64 B, eight little-endian words): packet id, scheduled send
   time, then six words that are a pure function of (seed, id). The sink
   checks each delivery against them. *)

module G = Topo.Graph
module W = Netsim.World
module H = Sirpent.Host
module M = Measure

let feeders = 16
let payload_bytes = 64
let tick = Sim.Time.ns 1700

let props =
  { G.bandwidth_bps = 1_000_000_000_000_000; propagation = Sim.Time.us 1; mtu = 1500 }

type t = {
  engine : Sim.Engine.t;
  world : W.t;
  g : G.t;
  router : Sirpent.Router.t;
  router_node : G.node_id;
  feeder_hosts : H.t array;
  feeder_ports : int array;  (** each feeder's own port *)
  router_in : int array;  (** the router's port toward each feeder *)
  router_out : int array;  (** the router's port toward the sink, per feeder *)
  sink : H.t;
  n : int;
  key : int;
  seen : Bytes.t;
  owd : int array;
  mutable delivered : int;
  mutable bad : int;
  mutable dups : int;
  mutable routes_checked : int;
  mutable routes_bad : int;
  mutable depth_max : int;
  send_words : float array;  (** traced runs: minor words inside Host.send* *)
}

let filler key id j = M.mix (key + (id * 8) + j)
let get b off = Int64.to_int (Bytes.get_int64_le b off)
let set b off v = Bytes.set_int64_le b off (Int64.of_int v)

let payload key ~id ~time =
  let b = Bytes.create payload_bytes in
  set b 0 id;
  set b 8 time;
  for j = 2 to (payload_bytes / 8) - 1 do
    set b (8 * j) (filler key id j)
  done;
  b

(* The XSR and VIPER return routes must both name the router's port back
   toward the feeder: the forward port sequence, reversed. *)
let check_route t id (packet : Viper.Packet.t) =
  t.routes_checked <- t.routes_checked + 1;
  let want = [ t.router_in.(id mod feeders) ] in
  match Viper.Packet.return_route_r packet with
  | Ok segs ->
    let ports =
      List.filter_map
        (fun (s : Viper.Segment.t) ->
          if s.Viper.Segment.port = Viper.Segment.local_port then None
          else Some s.Viper.Segment.port)
        segs
    in
    if ports <> want then t.routes_bad <- t.routes_bad + 1
  | Error _ -> t.routes_bad <- t.routes_bad + 1

let receive t (packet : Viper.Packet.t) =
  let d = packet.Viper.Packet.data in
  let id = if Bytes.length d = payload_bytes then get d 0 else -1 in
  if id < 0 || id >= t.n then t.bad <- t.bad + 1
  else if Bytes.get t.seen id <> '\000' then t.dups <- t.dups + 1
  else begin
    Bytes.set t.seen id '\001';
    let ok = ref true in
    for j = 2 to (payload_bytes / 8) - 1 do
      if get d (8 * j) <> filler t.key id j then ok := false
    done;
    if not !ok then t.bad <- t.bad + 1
    else begin
      t.delivered <- t.delivered + 1;
      t.owd.(id) <- Sim.Engine.now t.engine - get d 8;
      if id land 63 = 0 then check_route t id packet
    end
  end

let span_send = Spans.name "host.send"
let span_send_xsr = Spans.name "host.send_xsr"
let span_receive = Spans.name "bench.receive"
let span_run = Spans.name "engine.run"

(* Build the star and pre-schedule [ticks] packets per feeder. *)
let build ~seed ~ticks =
  let g = G.create () in
  let router_node = G.add_node g G.Router in
  let sink_node = G.add_node g G.Host in
  let feeds = Array.init feeders (fun _ -> G.add_node g G.Host) in
  let links = Array.map (fun f -> G.connect g f router_node props) feeds in
  let router_out =
    Array.init feeders (fun _ -> fst (G.connect g router_node sink_node props))
  in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let router = Sirpent.Router.create world ~node:router_node () in
  let n = feeders * ticks in
  let t =
    {
      engine;
      world;
      g;
      router;
      router_node;
      feeder_hosts = Array.map (fun f -> H.create world ~node:f) feeds;
      feeder_ports = Array.map fst links;
      router_in = Array.map snd links;
      router_out;
      sink = H.create world ~node:sink_node;
      n;
      key = M.mix (seed + 1);
      seen = Bytes.make n '\000';
      owd = Array.make n (-1);
      delivered = 0;
      bad = 0;
      dups = 0;
      routes_checked = 0;
      routes_bad = 0;
      depth_max = 0;
      send_words = [| 0.0 |];
    }
  in
  let traced = Spans.enabled () in
  H.set_receive t.sink
    (if traced then (fun _ ~packet ~in_port:_ ->
       let d = packet.Viper.Packet.data in
       let id = if Bytes.length d = payload_bytes then get d 0 else -1 in
       let s = Spans.enter span_receive ~id in
       receive t packet;
       Spans.leave s)
     else fun _ ~packet ~in_port:_ -> receive t packet);
  let routes =
    Array.init feeders (fun f ->
        {
          Sirpent.Route.first_port = t.feeder_ports.(f);
          segments =
            [
              Viper.Segment.make ~port:router_out.(f) ();
              Viper.Segment.make ~port:Viper.Segment.local_port ();
            ];
        })
  in
  let rng = Sim.Rng.create (Int64.of_int seed) in
  for k = 0 to ticks - 1 do
    for f = 0 to feeders - 1 do
      let id = (k * feeders) + f in
      let time = Sim.Time.ms 1 + (k * tick) + Sim.Rng.int rng tick in
      let data = payload t.key ~id ~time in
      let host = t.feeder_hosts.(f) and route = routes.(f) in
      let xsr = f land 1 = 1 in
      let send () =
        if xsr then ignore (H.send_xsr host ~route ~data ())
        else ignore (H.send host ~route ~data ())
      in
      let inject =
        if traced then (fun () ->
          let p = Sim.Engine.pending engine in
          if p > t.depth_max then t.depth_max <- p;
          let s = Spans.enter (if xsr then span_send_xsr else span_send) ~id in
          let w0 = Gc.minor_words () in
          send ();
          t.send_words.(0) <- t.send_words.(0) +. (Gc.minor_words () -. w0);
          Spans.leave s)
        else fun () ->
          let p = Sim.Engine.pending engine in
          if p > t.depth_max then t.depth_max <- p;
          send ()
      in
      ignore (Sim.Engine.schedule_at engine ~time inject)
    done
  done;
  t

let run t =
  let s = Spans.enter span_run ~id:0 in
  Sim.Engine.run t.engine;
  Spans.leave s

let failed t = t.n - t.delivered

let checks t =
  let ok1 =
    M.check "fwd.delivered_exactly_once"
      (t.delivered = t.n && t.dups = 0)
      (Printf.sprintf "%d of %d, %d duplicates" t.delivered t.n t.dups)
  in
  let ok2 = M.check "fwd.payload_intact" (t.bad = 0) (Printf.sprintf "%d damaged" t.bad) in
  let ok3 =
    M.check "fwd.return_route_reversed"
      (t.routes_checked > 0 && t.routes_bad = 0)
      (Printf.sprintf "%d sampled, %d wrong" t.routes_checked t.routes_bad)
  in
  ok1 && ok2 && ok3

let owd_us t =
  Array.to_list t.owd
  |> List.filter_map (fun d -> if d >= 0 then Some (Sim.Time.to_us d) else None)
  |> Array.of_list

(* Counters read from public accessors after an untraced run. *)
let counters t =
  let pt = Layers.port_totals t.g t.world in
  let rt = Layers.router_totals [ t.router ] in
  let bytes_of feeders_sel =
    let b = ref 0 and pkts = ref 0 in
    for f = 0 to feeders - 1 do
      if feeders_sel f then begin
        let s = W.port_stats t.world ~node:(H.node t.feeder_hosts.(f)) ~port:t.feeder_ports.(f) in
        let o = W.port_stats t.world ~node:t.router_node ~port:t.router_out.(f) in
        b := !b + s.W.sent_bytes + o.W.sent_bytes;
        pkts := !pkts + s.W.sent_frames
      end
    done;
    M.ratio_i !b !pkts
  in
  let d = max 1 t.delivered in
  let owd = owd_us t in
  M.
    [
      metric "sim.events_per_pkt" "" (ratio_i (Sim.Engine.executed t.engine) d);
      metric "sim.depth_max" "" (float_of_int t.depth_max);
      metric "world.frames_per_pkt" "" (ratio_i pt.Layers.frames d);
      metric "world.queue_max" "" pt.Layers.queue_max;
      metric "world.drops" "" (float_of_int (pt.Layers.drops + W.undelivered t.world));
      metric "world.trunk_util_max" "" pt.Layers.router_util_max;
      metric "viper.wire_bytes_per_pkt" "" (bytes_of (fun f -> f land 1 = 0));
      metric "xsr.wire_bytes_per_pkt" "" (bytes_of (fun f -> f land 1 = 1));
      metric "router.cut_through_ratio" "" (ratio_i rt.Layers.cut_throughs rt.Layers.forwarded);
      metric "router.drops" "" (float_of_int rt.Layers.drops);
      metric "host.misdelivered" ""
        (float_of_int
           (Array.fold_left (fun a h -> a + H.misdelivered h) (H.misdelivered t.sink) t.feeder_hosts));
      metric ~samples:(Array.length owd) "fidelity.sim_latency_us_p50" "" (percentile owd 0.5);
      metric ~samples:(Array.length owd) "fidelity.sim_latency_us_p99" "" (percentile owd 0.99);
    ]

let mean_frame_bytes t =
  let pt = Layers.port_totals t.g t.world in
  max 1 (pt.Layers.bytes / max 1 pt.Layers.frames)

(* A world holding only the star's router; the sink is a bare handler. *)
let router_world () =
  let t = build ~seed:0 ~ticks:0 in
  W.set_handler t.world (H.node t.sink) (fun _ ~in_port:_ ~frame:_ ~head:_ ~tail:_ -> ());
  (t.engine, t.world, t.router_node)

let rep ~seed ~ticks =
  let t, (), r = M.rep ~build:(fun () -> build ~seed ~ticks) ~run ~ops:(fun t -> t.delivered) in
  (t, r)

let ticks_for (cfg : M.config) = if cfg.M.tiny then 64 else 4096

let untraced (cfg : M.config) =
  let ticks = ticks_for cfg in
  let ok = ref true and attempted = ref 0 and failed_ = ref 0 in
  let reps =
    M.repeat ~seconds:cfg.M.seconds ~min_reps:3 (fun _ ->
        let t, r = rep ~seed:cfg.M.seed ~ticks in
        ok := !ok && checks t;
        attempted := !attempted + t.n;
        failed_ := !failed_ + failed t;
        r)
  in
  { M.correct = !ok; attempted = !attempted; failed = !failed_; metrics = M.end_to_end reps }

let traced (cfg : M.config) =
  let ticks = ticks_for cfg and seed = cfg.M.seed in
  (* alternate untraced and traced repetitions of one size *)
  let pairs = if cfg.M.tiny then 1 else 3 in
  let runs =
    List.init pairs (fun _ ->
        Spans.set_enabled false;
        let tu, ru = rep ~seed ~ticks in
        Spans.set_enabled true;
        Spans.reset ();
        let tt, rt = rep ~seed ~ticks in
        Spans.set_enabled false;
        (tu, ru, tt, rt))
  in
  let tu, _, tt, _ = List.nth runs (pairs - 1) in
  let ok = checks tu && checks tt in
  let overhead = M.median (List.map (fun (_, ru, _, rt) -> rt.M.wall_s /. ru.M.wall_s) runs) in
  let aggs = Spans.aggregate () in
  let sends =
    List.fold_left
      (fun (c, ns) nm ->
        match Spans.find aggs nm with
        | Some a -> (c + a.Spans.count, ns + a.Spans.self_ns)
        | None -> (c, ns))
      (0, 0) [ "host.send"; "host.send_xsr" ]
  in
  let host_ns = M.ratio_i (snd sends) (fst sends) in
  let host_words = tt.send_words.(0) /. float_of_int (max 1 (fst sends)) in
  let receive_ns = Spans.mean_self_ns aggs "bench.receive" in
  Spans.set_enabled true;
  let depth = tu.depth_max in
  let heap = Layers.heap ~seed ~depth ~ops:(if cfg.M.tiny then 1000 else 300_000) in
  let world =
    Layers.world_link ~props ~frame_bytes:(mean_frame_bytes tu)
      ~frames:(if cfg.M.tiny then 1000 else 100_000)
  in
  let cap_t = build ~seed ~ticks:64 in
  let cap = Layers.capture cap_t.world ~node:cap_t.router_node cap_t.router ~max:1024 in
  run cap_t;
  let frames = Layers.captured cap in
  let viper_pkts, xsr_pkts = Layers.split_formats frames in
  let ops = if cfg.M.tiny then 1000 else 200_000 in
  let viper = Layers.viper_hop ~packets:viper_pkts ~ops in
  let xsr = Layers.xsr_hop ~packets:xsr_pkts ~ops in
  let router = Layers.router_hop ~build:router_world ~frames ~ops:(ops / 2) in
  Spans.set_enabled false;
  let e2e_ns =
    M.median (List.map (fun (_, ru, _, _) -> 1e9 *. ru.M.wall_s /. float_of_int (max 1 ru.M.ops)) runs)
  in
  (* one router hop per packet *)
  let residual = e2e_ns -. (host_ns +. router.Layers.ns +. receive_ns) in
  Printf.printf
    "ledger (ns/pkt): end to end %.1f = host.send %.1f + router hop %.1f + bench.receive %.1f + residual %.1f\n"
    e2e_ns host_ns router.Layers.ns receive_ns residual;
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
          metric ~samples:(Array.length xsr_pkts) "xsr.ns_per_hop" "" xsr.Layers.ns;
          metric "xsr.words_per_hop" "" xsr.Layers.words;
          metric "router.ns_per_hop" "" router.Layers.ns;
          metric "router.words_per_hop" "" router.Layers.words;
          metric ~samples:(fst sends) "host.ns_per_send" "" host_ns;
          metric "host.words_per_send" "" host_words;
          metric "ledger.residual_ns_per_pkt" "" residual;
          metric ~samples:pairs "trace.overhead_ratio" "" overhead;
        ]
  in
  ( { M.correct = ok; attempted = tu.n + tt.n; failed = failed tu + failed tt; metrics },
    fun id -> id land 15 = 0 )

(* region-cluster: E20's four-region internetwork, larger, through
   Netsim.Shard.

   Per region: a gateway router on a ring of 1 ms / 45 Mb/s trunks, an
   internal router, and a star of 16 hosts on 10 Mb/s links. Every host
   sends 256 B packets at seeded times, one per 2 ms on average; one in
   three goes to a random host of another region, the rest to a random
   sibling. The cluster uses the static partition by region and no
   re-balance epoch. Timed repetitions run it through Shard.run at 1
   shard: the conservative protocol (rounds, promises, null messages,
   gateway channels) does all its work on one domain, so the figure
   does not depend on how the host schedules two domains. The traced
   run times the same cluster at 2 shards for the speed-up and checks
   that 2 shards give the same simulation.

   Counting is race-free: receive handlers run on the domain that owns
   the host's region and touch only that host's own record. Delivery
   totals are summed from Host.received after Shard.run returns, and
   one-way delays come from the per-host buffers. Payload (eight
   little-endian words, then filler): packet id, send time, the
   packet's slot at its destination host, then words that are a pure
   function of (seed, id). *)

module G = Topo.Graph
module W = Netsim.World
module P = Netsim.Partition
module S = Netsim.Shard
module H = Sirpent.Host
module M = Measure

let regions = 4
let hosts_per_region = 16
let payload_bytes = 256
let period = Sim.Time.ms 2
let parallel_shards = 2

let local_props = { G.bandwidth_bps = 10_000_000; propagation = Sim.Time.us 5; mtu = 1500 }
let trunk_props = { G.bandwidth_bps = 45_000_000; propagation = Sim.Time.ms 1; mtu = 1500 }

let topology () =
  let g = G.create () in
  let gws = Array.init regions (fun r -> G.add_node g ~name:(Printf.sprintf "gw.region%d" r) G.Router) in
  let rts = Array.init regions (fun r -> G.add_node g ~name:(Printf.sprintf "rt.region%d" r) G.Router) in
  let hosts =
    Array.init (regions * hosts_per_region) (fun h ->
        G.add_node g
          ~name:(Printf.sprintf "h%d.region%d" (h mod hosts_per_region) (h / hosts_per_region))
          G.Host)
  in
  Array.iteri (fun r rt -> ignore (G.connect g gws.(r) rt local_props)) rts;
  Array.iteri (fun h n -> ignore (G.connect g rts.(h / hosts_per_region) n local_props)) hosts;
  for r = 0 to regions - 1 do
    ignore (G.connect g gws.(r) gws.((r + 1) mod regions) trunk_props)
  done;
  (g, hosts)

(* Receiver-side record of one host; only its region's domain writes it. *)
type inbox = {
  expected : int;
  seen : Bytes.t;
  owd : int array;
  mutable got : int;
  mutable bad : int;
  mutable dups : int;
}

type t = {
  cluster : S.t;
  hosts : H.t array;
  inboxes : inbox array;
  n : int;
}

let get b off = Int64.to_int (Bytes.get_int64_le b off)
let set b off v = Bytes.set_int64_le b off (Int64.of_int v)
let filler key id j = M.mix (key + (id * 64) + j)

let receive key ib now (packet : Viper.Packet.t) =
  let d = packet.Viper.Packet.data in
  let slot = if Bytes.length d = payload_bytes then get d 16 else -1 in
  if slot < 0 || slot >= ib.expected then ib.bad <- ib.bad + 1
  else if Bytes.get ib.seen slot <> '\000' then ib.dups <- ib.dups + 1
  else begin
    Bytes.set ib.seen slot '\001';
    let id = get d 0 in
    let ok = ref true in
    for j = 3 to (payload_bytes / 8) - 1 do
      if get d (8 * j) <> filler key id j then ok := false
    done;
    if !ok then begin
      ib.owd.(slot) <- now - get d 8;
      ib.got <- ib.got + 1
    end
    else ib.bad <- ib.bad + 1
  end

let span_run = Spans.name "shard.run"

let build ~seed ~packets =
  let g, host_nodes = topology () in
  let region =
    match P.by_name g with Ok f -> f | Error e -> failwith (Format.asprintf "%a" P.pp_error e)
  in
  let part =
    match P.split g ~region with Ok p -> p | Error e -> failwith (Format.asprintf "%a" P.pp_error e)
  in
  let cluster = S.create part in
  for r = 0 to S.regions cluster - 1 do
    Telemetry.Flight.set_policy
      (W.flight (S.world cluster r))
      { Telemetry.Flight.sample_every = 16; capture_drops = true; capacity = 2048 }
  done;
  G.iter_nodes g (fun node ->
      if G.kind g node = G.Router then
        ignore (Sirpent.Router.create (S.world cluster (S.region_of cluster node)) ~node ()));
  let nh = Array.length host_nodes in
  let hosts =
    Array.map (fun h -> H.create (S.world cluster (S.region_of cluster h)) ~node:h) host_nodes
  in
  (* plan every packet: source, destination, time *)
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let n = nh * packets in
  let dst = Array.make n 0 and time = Array.make n 0 and slot = Array.make n 0 in
  let counts = Array.make nh 0 in
  for h = 0 to nh - 1 do
    let r = h / hosts_per_region in
    for k = 0 to packets - 1 do
      let id = (h * packets) + k in
      let d =
        if Sim.Rng.int rng 3 = 0 then
          let r' = (r + 1 + Sim.Rng.int rng (regions - 1)) mod regions in
          (r' * hosts_per_region) + Sim.Rng.int rng hosts_per_region
        else
          (r * hosts_per_region)
          + ((h mod hosts_per_region) + 1 + Sim.Rng.int rng (hosts_per_region - 1))
            mod hosts_per_region
      in
      dst.(id) <- d;
      time.(id) <- Sim.Time.ms 1 + (k * period) + Sim.Rng.int rng period;
      slot.(id) <- counts.(d);
      counts.(d) <- counts.(d) + 1
    done
  done;
  let key = M.mix (seed + 3) in
  let inboxes =
    Array.map
      (fun c ->
        { expected = c; seen = Bytes.make c '\000'; owd = Array.make c (-1); got = 0; bad = 0; dups = 0 })
      counts
  in
  Array.iteri
    (fun h host ->
      let ib = inboxes.(h) and world = H.world host in
      H.set_receive host (fun _ ~packet ~in_port:_ -> receive key ib (W.now world) packet))
    hosts;
  let routes = Hashtbl.create 1024 in
  let route_of s d =
    match Hashtbl.find_opt routes (s, d) with
    | Some r -> r
    | None ->
      let hops =
        Option.get
          (G.shortest_path g ~metric:(fun _ -> 1.0) ~src:host_nodes.(s) ~dst:host_nodes.(d))
      in
      let r = Sirpent.Route.of_hops g ~src:host_nodes.(s) hops in
      Hashtbl.replace routes (s, d) r;
      r
  in
  for id = 0 to n - 1 do
    let h = id / packets in
    let data = Bytes.create payload_bytes in
    set data 0 id;
    set data 8 time.(id);
    set data 16 slot.(id);
    for j = 3 to (payload_bytes / 8) - 1 do
      set data (8 * j) (filler key id j)
    done;
    let route = route_of h dst.(id) and host = hosts.(h) in
    let engine = S.engine cluster (S.region_of cluster host_nodes.(h)) in
    ignore
      (Sim.Engine.schedule_at engine ~time:time.(id) (fun () ->
           ignore (H.send host ~route ~data ())))
  done;
  { cluster; hosts; inboxes; n }

let horizon packets = Sim.Time.ms 1 + (packets * period) + Sim.Time.ms 50

let run ~shards ~packets t =
  let s = Spans.enter span_run ~id:shards in
  let stats = S.run ~shards ~until:(horizon packets) t.cluster in
  Spans.leave s;
  stats

let delivered t = Array.fold_left (fun a h -> a + H.received h) 0 t.hosts
let counted t = Array.fold_left (fun a ib -> a + ib.got) 0 t.inboxes

let checks t =
  let d = delivered t in
  let bad = Array.fold_left (fun a ib -> a + ib.bad) 0 t.inboxes in
  let dups = Array.fold_left (fun a ib -> a + ib.dups) 0 t.inboxes in
  let ok1 =
    M.check "region.delivered_exactly_once"
      (d = t.n && counted t = t.n && dups = 0)
      (Printf.sprintf "Host.received %d, payloads %d of %d, %d duplicates" d (counted t) t.n dups)
  in
  let ok2 = M.check "region.payload_intact" (bad = 0) (Printf.sprintf "%d damaged" bad) in
  ok1 && ok2

(* Merged telemetry and every delivery must match the 1-shard run. *)
let check_serial ~serial t =
  let same =
    S.merged_rows serial.cluster = S.merged_rows t.cluster
    && S.merged_events serial.cluster = S.merged_events t.cluster
    && S.merged_flights serial.cluster = S.merged_flights t.cluster
    && Array.for_all2 (fun a b -> a.owd = b.owd) serial.inboxes t.inboxes
  in
  M.check "region.identical_to_1_shard" same
    (Printf.sprintf "rows, events, flights, one-way delays at %d shards vs 1"
       parallel_shards)

let owd_us t =
  Array.concat (Array.to_list (Array.map (fun ib -> ib.owd) t.inboxes))
  |> Array.to_list
  |> List.filter_map (fun d -> if d >= 0 then Some (Sim.Time.to_us d) else None)
  |> Array.of_list

let rep ~shards ~seed ~packets =
  M.rep ~build:(fun () -> build ~seed ~packets) ~run:(run ~shards ~packets) ~ops:delivered

let packets_for (cfg : M.config) = if cfg.M.tiny then 20 else 500

let untraced (cfg : M.config) =
  let packets = packets_for cfg and seed = cfg.M.seed in
  let ok = ref true and attempted = ref 0 and failed_ = ref 0 in
  let reps =
    M.repeat ~seconds:cfg.M.seconds ~min_reps:3 (fun _ ->
        let t, _, r = rep ~shards:1 ~seed ~packets in
        ok := !ok && checks t;
        attempted := !attempted + t.n;
        failed_ := !failed_ + (t.n - counted t);
        r)
  in
  { M.correct = !ok; attempted = !attempted; failed = !failed_; metrics = M.end_to_end reps }

let traced (cfg : M.config) =
  let packets = packets_for cfg and seed = cfg.M.seed in
  let pairs = if cfg.M.tiny then 1 else 2 in
  let runs =
    List.init pairs (fun _ ->
        Spans.set_enabled false;
        let tu, su, ru = rep ~shards:1 ~seed ~packets in
        let par, _, rp = rep ~shards:parallel_shards ~seed ~packets in
        Spans.set_enabled true;
        let _, _, rt = rep ~shards:1 ~seed ~packets in
        Spans.set_enabled false;
        (tu, su, ru, par, rp, rt))
  in
  let tu, su, _, par, _, _ = List.nth runs (pairs - 1) in
  let ok = checks tu && checks par && check_serial ~serial:tu par in
  let med f = M.median (List.map f runs) in
  let overhead = med (fun (_, _, ru, _, _, rt) -> rt.M.wall_s /. ru.M.wall_s) in
  let speedup = med (fun (_, _, ru, _, rp, _) -> ru.M.wall_s /. rp.M.wall_s) in
  let worlds = List.init (S.regions tu.cluster) (S.world tu.cluster) in
  let graphs = List.init (S.regions tu.cluster) (S.graph tu.cluster) in
  let pts = List.map2 Layers.port_totals graphs worlds in
  let sumi f = List.fold_left (fun a p -> a + f p) 0 pts in
  let maxf f = List.fold_left (fun a p -> Float.max a (f p)) 0.0 pts in
  let rows = S.merged_rows tu.cluster in
  let counter name = Telemetry.Merge.counter_value rows name in
  let d = max 1 (delivered tu) in
  let rounds = max 1 su.S.rounds in
  let events = Array.fold_left (fun a (l : S.region_load) -> a + l.S.events) 0 su.S.per_region in
  let owd = owd_us tu in
  let metrics =
    M.
      [
        metric "sim.events_per_pkt" "" (ratio_i events d);
        metric "world.frames_per_pkt" "" (ratio_i (sumi (fun p -> p.Layers.frames)) d);
        metric "world.queue_max" "" (maxf (fun p -> p.Layers.queue_max));
        metric "world.drops" ""
          (float_of_int
             (sumi (fun p -> p.Layers.drops) + List.fold_left (fun a w -> a + W.undelivered w) 0 worlds));
        metric "world.trunk_util_max" "" (maxf (fun p -> p.Layers.router_util_max));
        metric "viper.wire_bytes_per_pkt" "" (ratio_i (sumi (fun p -> p.Layers.bytes)) d);
        metric "router.cut_through_ratio" ""
          (ratio_i (counter "router_cut_throughs") (counter "router_forwarded"));
        metric "router.drops" ""
          (float_of_int
             (counter "router_send_drops" + counter "router_dropped_malformed"
             + counter "router_unauthorized"));
        metric "host.misdelivered" ""
          (float_of_int (Array.fold_left (fun a h -> a + H.misdelivered h) 0 tu.hosts));
        metric "telemetry.flights_recorded" "" (float_of_int (List.length (S.merged_flights tu.cluster)));
        metric "shard.rounds" "" (float_of_int su.S.rounds);
        metric "shard.events_per_round" "" (ratio_i events rounds);
        metric "shard.null_msgs_per_round" "" (ratio_i su.S.null_messages rounds);
        metric "shard.cross_frames" "" (float_of_int su.S.cross_frames);
        metric "shard.us_per_round" "" (1e6 *. su.S.wall_clock_s /. float_of_int rounds);
        metric ~samples:pairs "shard.speedup_vs_serial" "" speedup;
        metric ~samples:(Array.length owd) "fidelity.sim_latency_us_p50" "" (percentile owd 0.5);
        metric ~samples:(Array.length owd) "fidelity.sim_latency_us_p99" "" (percentile owd 0.99);
        metric ~samples:pairs "trace.overhead_ratio" "" overhead;
      ]
  in
  ( { M.correct = ok; attempted = tu.n; failed = tu.n - counted tu; metrics }, fun _ -> true )

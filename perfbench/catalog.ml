(* Every metric the benchmark prints, with its unit. The same names and
   units are declared in BENCHMARK.json; the self-test checks the two
   agree. Every workload prints every metric: a layer that does no work
   on a workload reports 0. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("gc_words_per_op", "words");
    ("peak_rss_mb", "MiB");
  ]

let per_layer =
  [
    ("sim.events_per_pkt", "events");
    ("sim.depth_max", "events");
    ("sim.ns_per_event", "ns");
    ("sim.words_per_event", "words");
    ("world.frames_per_pkt", "frames");
    ("world.ns_per_frame", "ns");
    ("world.words_per_frame", "words");
    ("world.queue_max", "frames");
    ("world.drops", "count");
    ("world.trunk_util_max", "ratio");
    ("viper.ns_per_hop", "ns");
    ("viper.words_per_hop", "words");
    ("xsr.ns_per_hop", "ns");
    ("xsr.words_per_hop", "words");
    ("viper.wire_bytes_per_pkt", "B");
    ("xsr.wire_bytes_per_pkt", "B");
    ("router.ns_per_hop", "ns");
    ("router.words_per_hop", "words");
    ("router.cut_through_ratio", "ratio");
    ("router.drops", "count");
    ("host.ns_per_send", "ns");
    ("host.words_per_send", "words");
    ("host.misdelivered", "count");
    ("vmtp.pkts_per_txn", "pkts");
    ("vmtp.ns_per_call", "ns");
    ("vmtp.retransmit_ratio", "ratio");
    ("vmtp.route_switches", "count");
    ("faults.corrupted", "count");
    ("telemetry.flights_recorded", "count");
    ("telemetry.ns_per_pkt", "ns");
    ("dirsvc.hit_ratio", "ratio");
    ("dirsvc.hit_us_p50", "us");
    ("dirsvc.miss_us_p50", "us");
    ("dirsvc.query_us_p50", "us");
    ("dirsvc.query_us_p99", "us");
    ("dirsvc.spt_builds", "count");
    ("topo.ms_per_spt", "ms");
    ("dirsvc.words_per_query", "words");
    ("dirsvc.cache_entries", "count");
    ("shard.rounds", "count");
    ("shard.events_per_round", "events");
    ("shard.null_msgs_per_round", "msgs");
    ("shard.cross_frames", "count");
    ("shard.us_per_round", "us");
    ("shard.speedup_vs_serial", "x");
    ("fidelity.sim_latency_us_p50", "sim_us");
    ("fidelity.sim_latency_us_p99", "sim_us");
    ("ledger.residual_ns_per_pkt", "ns");
    ("trace.overhead_ratio", "ratio");
  ]

(* Complete a workload's measured values to the full list, in catalog
   order. A measured name missing from the catalog is a programming
   error. *)
let complete table (measured : Measure.metric list) =
  List.iter
    (fun (m : Measure.metric) ->
      if not (List.mem_assoc m.Measure.name table) then
        failwith ("metric not in catalog: " ^ m.Measure.name))
    measured;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (m : Measure.metric) -> m.Measure.name = name) measured with
      | Some m -> { m with Measure.unit_ }
      | None -> Measure.metric ~samples:0 name unit_ 0.0)
    table

(* Direct tests for the netsim link/port layer: serialization timing,
   priority queueing, preemption semantics, buffers, corruption, failure. *)

module G = Topo.Graph
module W = Netsim.World

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let props = G.default_props (* 10 Mb/s, 5 us prop *)

(* two nodes, one link; a recording handler on [b] *)
let pair ?(batching = false) () =
  let g = G.create () in
  let a = G.add_node g G.Host and b = G.add_node g G.Host in
  ignore (G.connect g a b props);
  let engine = Sim.Engine.create () in
  let world = W.create ~batching engine g in
  let log = ref [] in
  W.set_handler world b (fun _ ~in_port ~frame ~head ~tail ->
      log := (in_port, frame, head, tail) :: !log);
  (g, engine, world, a, b, log)

let serialization_timing () =
  let _, engine, world, a, _, log = pair () in
  (* 1000 B at 10 Mb/s = 800 us tx; head at 5 us, tail at 805 us *)
  let frame = W.fresh_frame world (Bytes.make 1000 'x') in
  (match W.send world ~node:a ~port:1 frame with
  | W.Started -> ()
  | _ -> Alcotest.fail "expected Started");
  Sim.Engine.run engine;
  match !log with
  | [ (in_port, _, head, tail) ] ->
    check_int "in port" 1 in_port;
    check_int "head = propagation" (Sim.Time.us 5) head;
    check_int "tail = tx + propagation" (Sim.Time.us 805) tail;
    (* the run ends at the end of serialization, after the delivery *)
    check_int "clock at end of serialization" (Sim.Time.us 800) (Sim.Engine.now engine)
  | _ -> Alcotest.fail "expected one delivery"

let fifo_when_busy () =
  let _, engine, world, a, _, log = pair () in
  let f1 = W.fresh_frame world (Bytes.make 100 '1') in
  let f2 = W.fresh_frame world (Bytes.make 100 '2') in
  ignore (W.send world ~node:a ~port:1 f1);
  (match W.send world ~node:a ~port:1 f2 with
  | W.Queued -> ()
  | _ -> Alcotest.fail "expected Queued");
  check_int "queue length" 1 (W.queue_length world ~node:a ~port:1);
  Sim.Engine.run engine;
  let order = List.rev_map (fun (_, f, _, _) -> Bytes.get f.Netsim.Frame.payload 0) !log in
  Alcotest.(check (list char)) "fifo order" [ '1'; '2' ] order

let priority_order_in_queue () =
  let _, engine, world, a, _, log = pair () in
  (* occupy the port, then queue normal + high; high must go first *)
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 1000 '0')));
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world ~priority:0 (Bytes.make 100 'n')));
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world ~priority:5 (Bytes.make 100 'h')));
  Sim.Engine.run engine;
  let order = List.rev_map (fun (_, f, _, _) -> Bytes.get f.Netsim.Frame.payload 0) !log in
  Alcotest.(check (list char)) "priority first among queued" [ '0'; 'h'; 'n' ] order

let preemption_kills_victim () =
  let _, engine, world, a, _, log = pair () in
  let victim = W.fresh_frame world (Bytes.make 1000 'v') in
  ignore (W.send world ~node:a ~port:1 victim);
  (* preempt 100 us into the 800 us transmission *)
  ignore
    (Sim.Engine.schedule engine ~delay:(Sim.Time.us 100) (fun () ->
         let urgent = W.fresh_frame world ~priority:7 (Bytes.make 100 'u') in
         match W.send world ~node:a ~port:1 urgent with
         | W.Started_preempting f ->
           check_bool "preempted the victim" true (f.Netsim.Frame.id = victim.Netsim.Frame.id)
         | _ -> Alcotest.fail "expected preemption"));
  Sim.Engine.run engine;
  (* the victim's delivery was cancelled OR flagged aborted *)
  let alive =
    List.filter
      (fun (_, f, _, _) ->
        Bytes.get f.Netsim.Frame.payload 0 = 'v' && not f.Netsim.Frame.aborted)
      !log
  in
  check_int "victim never delivered intact" 0 (List.length alive);
  check_int "one preemption counted" 1 (W.port_stats world ~node:a ~port:1).W.preempted

let preemptive_does_not_preempt_preemptive () =
  let _, engine, world, a, _, log = pair () in
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world ~priority:6 (Bytes.make 1000 'a')));
  ignore
    (Sim.Engine.schedule engine ~delay:(Sim.Time.us 100) (fun () ->
         match W.send world ~node:a ~port:1 (W.fresh_frame world ~priority:7 (Bytes.make 100 'b')) with
         | W.Queued -> ()
         | _ -> Alcotest.fail "priority 7 must queue behind priority 6"));
  Sim.Engine.run engine;
  check_int "both arrive" 2 (List.length !log)

let drop_if_blocked () =
  let _, engine, world, a, _, log = pair () in
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 1000 'x')));
  let dib = W.fresh_frame world ~drop_if_blocked:true (Bytes.make 100 'd') in
  (match W.send world ~node:a ~port:1 dib with
  | W.Dropped_blocked -> ()
  | _ -> Alcotest.fail "expected Dropped_blocked");
  Sim.Engine.run engine;
  check_int "only first arrives" 1 (List.length !log);
  check_int "counted" 1 (W.port_stats world ~node:a ~port:1).W.dropped_blocked

let buffer_overflow () =
  let _, engine, world, a, _, _ = pair () in
  W.set_buffer_bytes world ~node:a ~port:1 2048;
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 1000 'x')));
  (* two queue, the third overflows the 2048 B buffer *)
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 1000 'x')));
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 1000 'x')));
  (match W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 1000 'x')) with
  | W.Dropped_overflow -> ()
  | _ -> Alcotest.fail "expected overflow");
  Sim.Engine.run engine;
  check_int "overflow counted" 1 (W.port_stats world ~node:a ~port:1).W.dropped_overflow

let no_link_drop () =
  let g = G.create () in
  let a = G.add_node g G.Host in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  (match W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 10 'x')) with
  | W.Dropped_no_link -> ()
  | _ -> Alcotest.fail "expected no link");
  check_int "counted" 1 (W.port_stats world ~node:a ~port:1).W.dropped_no_link

(* Ports are one byte: the per-port accessors reject anything outside
   0-255 rather than creating a port for it, while a valid but
   unconnected port still just drops. *)
let out_of_range_ports_rejected () =
  let _, _, world, a, _, _ = pair () in
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun port ->
      rejects "port_stats" (fun () -> ignore (W.port_stats world ~node:a ~port));
      rejects "queue_length" (fun () -> ignore (W.queue_length world ~node:a ~port));
      rejects "set_buffer_bytes" (fun () -> W.set_buffer_bytes world ~node:a ~port 10))
    [ -1; 256; 1000; max_int ];
  (match W.send world ~node:a ~port:255 (W.fresh_frame world (Bytes.make 10 'x')) with
  | W.Dropped_no_link -> ()
  | _ -> Alcotest.fail "expected no link on port 255");
  check_int "counted on 255" 1 (W.port_stats world ~node:a ~port:255).W.dropped_no_link;
  check_int "port 2 untouched" 0 (W.port_stats world ~node:a ~port:2).W.dropped_no_link

let failed_link_keeps_in_flight () =
  let g, engine, world, a, _, log = pair () in
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 100 'x')));
  (* fail immediately: frame already in flight still arrives *)
  (match G.link_via g a 1 with
  | Some l -> W.fail_link world l
  | None -> Alcotest.fail "link");
  (match W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 100 'y')) with
  | W.Dropped_no_link -> ()
  | _ -> Alcotest.fail "second send must fail");
  Sim.Engine.run engine;
  check_int "in-flight frame arrived" 1 (List.length !log)

let queued_frames_dropped_when_link_dies_midstream () =
  let g, engine, world, a, _, log = pair () in
  Telemetry.Flight.set_policy (W.flight world)
    { Telemetry.Flight.sample_every = 1; capture_drops = true; capacity = 4 };
  let send c =
    let flight = Telemetry.Flight.start (W.flight world) ~now:(W.now world) in
    ignore (W.send world ~node:a ~port:1 (W.fresh_frame world ?flight (Bytes.make 1000 c)))
  in
  send '1';
  send '2';
  (* kill the link during the first transmission; the queued frame is
     dropped at completion time *)
  ignore
    (Sim.Engine.schedule engine ~delay:(Sim.Time.us 100) (fun () ->
         match G.link_via g a 1 with
         | Some l -> W.fail_link world l
         | None -> ()));
  Sim.Engine.run engine;
  check_int "first delivered" 1 (List.length !log);
  check_bool "second dropped no-link" true
    ((W.port_stats world ~node:a ~port:1).W.dropped_no_link >= 1);
  (* the dropped frame's flight ends there, at the end of the first
     frame's serialization; the delivered one stays open *)
  Alcotest.(check (list (pair int (option string))))
    "flight dropped" [ (2, Some "no_link") ]
    (List.map
       (fun (f : Telemetry.Flight.flight) -> (f.packet_id, f.dropped))
       (Telemetry.Flight.flights (W.flight world)))

let corruption_flips_bytes () =
  let _, engine, world, a, _, log = pair () in
  W.set_bit_error_rate world ~link_id:0 1e-3;
  for _ = 1 to 30 do
    ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 500 '\000')))
  done;
  Sim.Engine.run engine;
  let corrupted_deliveries =
    List.filter
      (fun (_, f, _, _) -> Bytes.exists (fun c -> c <> '\000') f.Netsim.Frame.payload)
      !log
  in
  check_bool "some frames corrupted" true (List.length corrupted_deliveries > 0);
  check_bool "stat matches" true
    ((W.port_stats world ~node:a ~port:1).W.corrupted
    = List.length corrupted_deliveries)

let utilization_accounting () =
  let _, engine, world, a, _, _ = pair () in
  (* one 1000 B frame = 800 us busy; run to exactly 1600 us -> 50% util *)
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 1000 'x')));
  Sim.Engine.run ~until:(Sim.Time.us 1600) engine;
  let u = W.utilization world ~node:a ~port:1 in
  check_bool "50% busy" true (abs_float (u -. 0.5) < 0.01);
  let st = W.port_stats world ~node:a ~port:1 in
  check_int "bytes" 1000 st.W.sent_bytes;
  check_int "frames" 1 st.W.sent_frames

let undelivered_counted () =
  let g = G.create () in
  let a = G.add_node g G.Host and b = G.add_node g G.Host in
  ignore (G.connect g a b props);
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  (* no handler on b *)
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 10 'x')));
  Sim.Engine.run engine;
  check_int "undelivered" 1 (W.undelivered world)

(* --- batched delivery: execution-order equivalence --- *)

(* A fan-in star: [k] leaves into one hub, synchronized sends, so the
   hub sees same-instant arrival batches. The batched drain must replay
   the exact unbatched execution — same deliveries, same order, same
   (head, tail, now) stamps, same port stats — because batching only
   regroups same-key events, never reorders them. *)
let star_scenario ~batching ~pooling =
  let k = 4 in
  let g = G.create () in
  let hub = G.add_node g G.Host in
  let leaves = Array.init k (fun _ -> G.add_node g G.Host) in
  Array.iter (fun l -> ignore (G.connect g l hub props)) leaves;
  let engine = Sim.Engine.create () in
  let world = W.create ~batching ~pooling engine g in
  let log = ref [] in
  W.set_handler world hub (fun _ ~in_port ~frame ~head ~tail ->
      log :=
        ( in_port,
          Bytes.get frame.Netsim.Frame.payload 0,
          frame.Netsim.Frame.aborted,
          head,
          tail,
          Sim.Engine.now engine )
        :: !log);
  (* wave 1: all leaves at t=0, equal sizes -> one 4-wide batch at hub *)
  Array.iteri
    (fun i l ->
      ignore
        (W.send world ~node:l ~port:1
           (W.fresh_frame world (Bytes.make 100 (Char.chr (Char.code 'a' + i))))))
    leaves;
  (* wave 2: a long victim then a preemptive frame on the same leaf port *)
  ignore
    (Sim.Engine.schedule engine ~delay:(Sim.Time.us 50) (fun () ->
         ignore
           (W.send world ~node:leaves.(0) ~port:1
              (W.fresh_frame world (Bytes.make 1000 'v')))));
  ignore
    (Sim.Engine.schedule engine ~delay:(Sim.Time.us 150) (fun () ->
         ignore
           (W.send world ~node:leaves.(0) ~port:1
              (W.fresh_frame world ~priority:7 (Bytes.make 100 'u')))));
  (* wave 3: queue two frames on leaf 1 then purge it mid-stream *)
  ignore
    (Sim.Engine.schedule engine ~delay:(Sim.Time.us 60) (fun () ->
         ignore
           (W.send world ~node:leaves.(1) ~port:1
              (W.fresh_frame world (Bytes.make 1000 'p')));
         ignore
           (W.send world ~node:leaves.(1) ~port:1
              (W.fresh_frame world (Bytes.make 100 'q')))));
  ignore
    (Sim.Engine.schedule engine ~delay:(Sim.Time.us 120) (fun () ->
         ignore (W.purge_node world ~node:leaves.(1))));
  (* wave 4: another synchronized burst after the dust settles *)
  ignore
    (Sim.Engine.schedule engine ~delay:(Sim.Time.ms 2) (fun () ->
         Array.iteri
           (fun i l ->
             ignore
               (W.send world ~node:l ~port:1
                  (W.fresh_frame world
                     (Bytes.make 100 (Char.chr (Char.code 'A' + i))))))
           leaves));
  Sim.Engine.run engine;
  let stats =
    Array.to_list
      (Array.map
         (fun l ->
           let s = W.port_stats world ~node:l ~port:1 in
           (s.W.sent_frames, s.W.preempted, s.W.purged))
         leaves)
  in
  (List.rev !log, stats, Sim.Engine.now engine)

let batched_equals_unbatched () =
  let reference = star_scenario ~batching:false ~pooling:false in
  let ref_log, _, _ = reference in
  check_bool "scenario delivers" true (List.length ref_log >= 8);
  List.iter
    (fun (batching, pooling, label) ->
      let log, stats, end_t = star_scenario ~batching ~pooling in
      let rlog, rstats, rend = reference in
      Alcotest.(check int) (label ^ " count") (List.length rlog) (List.length log);
      List.iteri
        (fun i ((p, c, ab, h, tl, n), (p', c', ab', h', tl', n')) ->
          let m = Printf.sprintf "%s delivery %d" label i in
          check_int (m ^ " port") p p';
          Alcotest.(check char) (m ^ " byte") c c';
          check_bool (m ^ " aborted") ab ab';
          check_int (m ^ " head") h h';
          check_int (m ^ " tail") tl tl';
          check_int (m ^ " now") n n')
        (List.combine rlog log);
      Alcotest.(check (list (triple int int int))) (label ^ " stats") rstats stats;
      check_int (label ^ " end time") rend end_t)
    [
      (true, false, "batched");
      (false, true, "pooled");
      (true, true, "batched+pooled");
    ]

let trace_captures_drops () =
  let _, engine, world, a, _, _ = pair () in
  let tr = Sim.Trace.create () in
  W.set_trace world tr;
  ignore (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 1000 'x')));
  ignore
    (W.send world ~node:a ~port:1
       (W.fresh_frame world ~drop_if_blocked:true (Bytes.make 100 'd')));
  Sim.Engine.run engine;
  let contains needle haystack =
    let n = String.length needle and l = String.length haystack in
    let rec scan i = i + n <= l && (String.sub haystack i n = needle || scan (i + 1)) in
    scan 0
  in
  check_bool "drop traced" true
    (List.exists (fun (_, m) -> contains "blocked" m) (Sim.Trace.entries tr))

(* --- ties at the instant a transmission finishes --- *)

let result_name = function
  | W.Started -> "started"
  | W.Started_preempting v -> Printf.sprintf "preempting#%d" v.Netsim.Frame.id
  | W.Queued -> "queued"
  | W.Dropped_blocked -> "blocked"
  | W.Dropped_overflow -> "overflow"
  | W.Dropped_no_link -> "no_link"

(* Port 1 of [a] starts a 100 B frame at 0 (finish = 80 us). Two probes
   run at exactly [finish]: one deferred before the transmission started,
   so keyed before its completion, and one deferred after. The first
   must still see the port busy, the second idle. The send runs as an
   event of [b] so that [a]'s inbox holds only the two probes: batched,
   they drain under one cursor. *)
let tie_at_finish ~batching probe =
  let _, engine, world, a, b, rx = pair ~batching () in
  let log = ref [] in
  let say fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
  let finish = Sim.Time.transmission ~bits:800 ~rate_bps:props.G.bandwidth_bps in
  let port () =
    Printf.sprintf "busy=%b until=%d q=%d"
      (W.port_busy world ~node:a ~port:1)
      (W.port_busy_until world ~node:a ~port:1)
      (W.queue_length world ~node:a ~port:1)
  in
  let run_probe label () =
    let seen = port () in
    let result = probe world a in
    say "%s at %d: %s, then %s: %s" label (W.now world) seen result (port ())
  in
  W.defer world ~node:a ~time:finish (run_probe "before");
  W.defer world ~node:b ~time:0 (fun () ->
      say "first %s"
        (result_name (W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make 100 'f'))));
      W.defer world ~node:a ~time:finish (run_probe "after"));
  Sim.Engine.run engine;
  let s = W.port_stats world ~node:a ~port:1 in
  say "end %d sent=%d preempted=%d purged=%d busy=%b" (Sim.Engine.now engine)
    s.W.sent_frames s.W.preempted s.W.purged (W.port_busy world ~node:a ~port:1);
  List.iter
    (fun (_, f, head, tail) ->
      say "rx #%d %d %d %b" f.Netsim.Frame.id head tail f.Netsim.Frame.aborted)
    (List.rev !rx);
  List.rev !log

let tie_probes =
  let send ?priority ?drop_if_blocked w a =
    result_name
      (W.send w ~node:a ~port:1
         (W.fresh_frame w ?priority ?drop_if_blocked (Bytes.make 100 'p')))
  in
  [
    ("look", fun _ _ -> "-");
    ("send", fun w a -> send w a);
    ("send drop_if_blocked", fun w a -> send ~drop_if_blocked:true w a);
    ("send preemptive", fun w a -> send ~priority:7 w a);
    ("purge", fun w a -> Printf.sprintf "purged %d" (W.purge_node w ~node:a));
  ]

(* A zero-byte frame finishes the instant it starts: its completion is
   keyed after the event that sent it, so a second send from the same
   event, or from top level before the next run, still finds the port
   busy. *)
let zero_byte ~batching =
  let _, engine, world, a, _, rx = pair ~batching () in
  let log = ref [] in
  let say fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
  let send label size =
    let r = W.send world ~node:a ~port:1 (W.fresh_frame world (Bytes.make size 'z')) in
    say "%s %s busy=%b until=%d q=%d" label (result_name r)
      (W.port_busy world ~node:a ~port:1)
      (W.port_busy_until world ~node:a ~port:1)
      (W.queue_length world ~node:a ~port:1)
  in
  send "top empty" 0;
  send "top second" 0;
  Sim.Engine.run engine;
  say "after run %d busy=%b" (Sim.Engine.now engine) (W.port_busy world ~node:a ~port:1);
  let at = Sim.Time.us 10 in
  W.defer world ~node:a ~time:at (fun () ->
      send "event empty" 0;
      send "event full" 100);
  W.defer world ~node:a ~time:at (fun () -> send "later event" 0);
  Sim.Engine.run engine;
  say "end %d busy=%b" (Sim.Engine.now engine) (W.port_busy world ~node:a ~port:1);
  List.iter
    (fun (_, f, head, tail) ->
      say "rx #%d %d %d %b" f.Netsim.Frame.id head tail f.Netsim.Frame.aborted)
    (List.rev !rx);
  List.rev !log

(* Expected logs, computed at the commit before completions became lazy,
   when every transmission scheduled its completion as its own event. *)
let tie_expected =
  [
    ( "look",
      [
        "first started";
        "before at 80000: busy=true until=80000 q=0, then -: busy=true until=80000 q=0";
        "after at 80000: busy=false until=80000 q=0, then -: busy=false until=80000 q=0";
        "end 80000 sent=1 preempted=0 purged=0 busy=false";
        "rx #0 5000 85000 false";
      ] );
    ( "send",
      [
        "first started";
        "before at 80000: busy=true until=80000 q=0, then queued: busy=true until=80000 q=1";
        "after at 80000: busy=true until=160000 q=0, then queued: busy=true until=160000 q=1";
        "end 240000 sent=3 preempted=0 purged=0 busy=false";
        "rx #0 5000 85000 false";
        "rx #1 85000 165000 false";
        "rx #2 165000 245000 false";
      ] );
    ( "send drop_if_blocked",
      [
        "first started";
        "before at 80000: busy=true until=80000 q=0, then blocked: busy=true until=80000 q=0";
        "after at 80000: busy=false until=80000 q=0, then started: busy=true until=160000 q=0";
        "end 160000 sent=2 preempted=0 purged=0 busy=false";
        "rx #0 5000 85000 false";
        "rx #2 85000 165000 false";
      ] );
    ( "send preemptive",
      [
        "first started";
        "before at 80000: busy=true until=80000 q=0, then preempting#0: busy=true until=160000 q=0";
        "after at 80000: busy=true until=160000 q=0, then queued: busy=true until=160000 q=1";
        "end 240000 sent=3 preempted=1 purged=0 busy=false";
        "rx #0 5000 85000 true";
        "rx #1 85000 165000 false";
        "rx #2 165000 245000 false";
      ] );
    ( "purge",
      [
        "first started";
        "before at 80000: busy=true until=80000 q=0, then purged 1: busy=false until=80000 q=0";
        "after at 80000: busy=false until=80000 q=0, then purged 0: busy=false until=80000 q=0";
        "end 80000 sent=1 preempted=0 purged=1 busy=false";
        "rx #0 5000 85000 true";
      ] );
  ]

let zero_byte_expected =
  [
    "top empty started busy=true until=0 q=0";
    "top second queued busy=true until=0 q=1";
    "after run 5000 busy=false";
    "event empty started busy=true until=10000 q=0";
    "event full queued busy=true until=10000 q=1";
    "later event queued busy=true until=10000 q=2";
    "end 95000 busy=false";
    "rx #0 5000 5000 false";
    "rx #1 5000 5000 false";
    "rx #2 15000 15000 false";
    "rx #3 15000 95000 false";
    "rx #4 95000 95000 false";
  ]

let ties_at_finish () =
  List.iter
    (fun batching ->
      List.iter
        (fun (name, probe) ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s, batched %b" name batching)
            (List.assoc name tie_expected)
            (tie_at_finish ~batching probe))
        tie_probes;
      Alcotest.(check (list string))
        (Printf.sprintf "zero-byte frames, batched %b" batching)
        zero_byte_expected (zero_byte ~batching))
    [ false; true ]

(* Golden digest: fixed seeded random sequences of sends, link failures
   and repairs, crash purges and buffer resizes on a small multi-port
   graph with a store-and-forward link, a noisy link, a departure tap, a
   raising handler, a handlerless host and sampled flights. Everything
   observable is folded into one digest per seed: [port_stats] of every
   (node, port) in 0-7, per-node handler errors, the delivery, tap and
   purge logs, the telemetry rows and events, and every recorded flight.
   The expected digests pin the behaviour of the port layer, so any
   change to its data structures must reproduce them exactly; batched
   delivery must reproduce them too. Flights are digested in packet-id
   order: the order in which one crash purge commits the flights of
   several ports is pinned separately, by [purge_flight_order]. *)
let golden_run ~seed ~batching =
  let g = G.create () in
  let r = Array.init 4 (fun _ -> G.add_node g G.Router) in
  let h = Array.init 3 (fun _ -> G.add_node g G.Host) in
  let fast = { props with G.bandwidth_bps = 100_000_000 } in
  let slow = { props with G.bandwidth_bps = 1_000_000; propagation = Sim.Time.us 40 } in
  List.iter
    (fun (a, b, p) -> ignore (G.connect g a b p))
    [
      (r.(0), r.(1), fast); (r.(1), r.(2), props); (r.(2), r.(3), slow);
      (r.(3), r.(0), fast); (r.(0), r.(2), props); (r.(1), r.(3), slow);
      (r.(1), r.(3), props); (h.(0), r.(0), props); (h.(1), r.(1), props);
      (h.(2), r.(3), props);
    ];
  let links = Array.of_list (G.links g) in
  let nodes = G.node_count g in
  let engine = Sim.Engine.create () in
  let world = W.create ~default_buffer_bytes:3000 ~batching engine g in
  W.set_store_and_forward world ~link_id:2;
  W.set_bit_error_rate world ~link_id:4 2e-4;
  Telemetry.Flight.set_policy (W.flight world)
    { Telemetry.Flight.sample_every = 1; capture_drops = true; capacity = 256 };
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let log = Buffer.create 4096 in
  W.set_departure_tap world ~node:r.(2) (fun ~head ->
      Printf.bprintf log "tap %d\n" head);
  (* byte 0 of a payload is its remaining hop budget; 0xEE poisons *)
  let handler node w ~in_port ~frame ~head ~tail =
    let payload = frame.Netsim.Frame.payload in
    let ttl = Char.code (Bytes.get payload 0) in
    Printf.bprintf log "rx %d/%d #%d %d %d %b %d\n" node in_port
      frame.Netsim.Frame.id head tail frame.Netsim.Frame.aborted ttl;
    if ttl = 0xEE then failwith "poisoned frame";
    let ctx = frame.Netsim.Frame.flight in
    if ttl = 0 || ttl > 8 || frame.Netsim.Frame.aborted then
      Option.iter (fun c -> Telemetry.Flight.complete c ~now:(W.now w)) ctx
    else begin
      let out_port = 1 + Sim.Rng.int rng (G.degree g node + 1) in
      Option.iter
        (fun c ->
          Telemetry.Flight.hop c ~node ~in_port ~out_port ~arrival:head
            ~departure:(W.now w) ~handling:Telemetry.Flight.Cut_through)
        ctx;
      let fwd = Bytes.copy payload in
      Bytes.set fwd 0 (Char.chr (ttl - 1));
      ignore
        (W.send w ~node ~port:out_port
           (W.fresh_frame w ~priority:frame.Netsim.Frame.priority ?flight:ctx fwd))
    end
  in
  for node = 0 to nodes - 1 do
    if node <> h.(2) then W.set_handler world node (handler node)
  done;
  let op () =
    let node =
      if Sim.Rng.int rng 4 > 0 then r.(Sim.Rng.int rng 4) else Sim.Rng.int rng nodes
    in
    let roll = Sim.Rng.int rng 100 in
    if roll < 70 then begin
      let port =
        if Sim.Rng.int rng 5 = 0 then Sim.Rng.int rng 7
        else 1 + Sim.Rng.int rng (max 1 (G.degree g node))
      in
      let size = 40 + Sim.Rng.int rng 1460 in
      let payload = Bytes.make size 'd' in
      Bytes.set payload 0
        (Char.chr (if roll < 4 then 0xEE else Sim.Rng.int rng 7));
      let frame =
        W.fresh_frame world ~priority:(Sim.Rng.int rng 8)
          ~drop_if_blocked:(Sim.Rng.int rng 6 = 0)
          ?flight:(Telemetry.Flight.start (W.flight world) ~now:(W.now world))
          payload
      in
      let result =
        match W.send world ~node ~port frame with
        | W.Started -> "started"
        | W.Started_preempting v -> Printf.sprintf "preempting#%d" v.Netsim.Frame.id
        | W.Queued -> "queued"
        | W.Dropped_blocked -> "blocked"
        | W.Dropped_overflow -> "overflow"
        | W.Dropped_no_link -> "no_link"
      in
      Printf.bprintf log "send %d/%d #%d %s\n" node port frame.Netsim.Frame.id result
    end
    else if roll < 76 then W.fail_link world links.(Sim.Rng.int rng (Array.length links))
    else if roll < 86 then
      W.restore_link world links.(Sim.Rng.int rng (Array.length links))
    else if roll < 92 then
      Printf.bprintf log "purge %d %d\n" node (W.purge_node world ~node)
    else
      W.set_buffer_bytes world ~node ~port:(Sim.Rng.int rng 7)
        (1000 + Sim.Rng.int rng 7000)
  in
  for _ = 1 to 150 do
    ignore
      (Sim.Engine.schedule_at engine ~time:(Sim.Rng.int rng (Sim.Time.ms 6)) op)
  done;
  Sim.Engine.run engine;
  for node = 0 to nodes - 1 do
    for port = 0 to 7 do
      let s = W.port_stats world ~node ~port in
      Printf.bprintf log "port %d/%d %d %d %d %d %d %d %d %d %d %h %h %d %d\n" node
        port s.W.sent_frames s.W.sent_bytes s.W.dropped_blocked
        s.W.dropped_overflow s.W.dropped_no_link s.W.preempted s.W.corrupted
        s.W.purged s.W.busy_time s.W.mean_queue s.W.max_queue
        (W.queue_length world ~node ~port)
        (W.queued_bytes world ~node ~port)
    done;
    Printf.bprintf log "errors %d %d\n" node (W.handler_errors world ~node)
  done;
  Printf.bprintf log "undelivered %d now %d\n%s\n" (W.undelivered world)
    (W.now world)
    (Telemetry.Export.json ~events:(W.events world) (W.metrics world));
  let module F = Telemetry.Flight in
  let reason = Option.value ~default:"-" in
  List.iter
    (fun (f : F.flight) ->
      Printf.bprintf log "flight %d %d %d %s\n" f.packet_id f.injected_at
        f.completed_at (reason f.dropped);
      List.iter
        (fun (sp : F.span) ->
          Printf.bprintf log " span %d %d %d %d %d %d %s %s %s\n" sp.node
            sp.in_port sp.out_port sp.arrival sp.departure sp.queue_wait
            (F.handling_name sp.handling) (F.token_name sp.token)
            (reason sp.drop))
        f.spans)
    (List.sort
       (fun (a : F.flight) (b : F.flight) -> compare a.packet_id b.packet_id)
       (F.flights (W.flight world)));
  Digest.to_hex (Digest.string (Buffer.contents log))

let golden_digests =
  [
    (1, "06f87ea08f97ad5491bb8e1c947cfcbc");
    (2, "646b4da76bd92306602b0d272b3af48b");
    (3, "171f9671269bea0bcd9f8f43fe5eed49");
    (4, "d17f3730d725bfeb74809b905fd2b7ea");
    (5, "5a9a51fb8c89a859a4bed744de0df67f");
    (6, "7b53cdbe89010bc07516cd6141e475a1");
  ]

(* A crash purge drops the frames of the node's ports in ascending port
   order, so their flights are committed in that order. *)
let purge_flight_order () =
  let g = G.create () in
  let hub = G.add_node g G.Router in
  let leaves = Array.init 3 (fun _ -> G.add_node g G.Host) in
  Array.iter (fun l -> ignore (G.connect g hub l props)) leaves;
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  Telemetry.Flight.set_policy (W.flight world)
    { Telemetry.Flight.sample_every = 1; capture_drops = true; capacity = 16 };
  let send port =
    let flight = Telemetry.Flight.start (W.flight world) ~now:(W.now world) in
    ignore (W.send world ~node:hub ~port (W.fresh_frame world ?flight (Bytes.make 500 'x')))
  in
  List.iter send [ 3; 1; 2; 1 ];
  check_int "purged" 4 (W.purge_node world ~node:hub);
  (* packets 1-4 went out ports 3, 1, 2, 1 *)
  Alcotest.(check (list int)) "flights by port, then queue order" [ 2; 4; 3; 1 ]
    (List.map
       (fun (f : Telemetry.Flight.flight) -> f.packet_id)
       (Telemetry.Flight.flights (W.flight world)))

let golden_port_layer () =
  List.iter
    (fun (seed, expected) ->
      let unbatched = golden_run ~seed ~batching:false in
      Alcotest.(check string) (Printf.sprintf "seed %d" seed) expected unbatched;
      Alcotest.(check string)
        (Printf.sprintf "seed %d batched" seed)
        unbatched
        (golden_run ~seed ~batching:true))
    golden_digests

let () =
  Alcotest.run "netsim"
    [
      ( "transmission",
        [
          Alcotest.test_case "serialization timing" `Quick serialization_timing;
          Alcotest.test_case "fifo when busy" `Quick fifo_when_busy;
          Alcotest.test_case "priority ordering" `Quick priority_order_in_queue;
          Alcotest.test_case "utilization accounting" `Quick utilization_accounting;
        ] );
      ( "preemption",
        [
          Alcotest.test_case "kills victim" `Quick preemption_kills_victim;
          Alcotest.test_case "no preempt among preemptives" `Quick
            preemptive_does_not_preempt_preemptive;
        ] );
      ( "drops",
        [
          Alcotest.test_case "drop-if-blocked" `Quick drop_if_blocked;
          Alcotest.test_case "buffer overflow" `Quick buffer_overflow;
          Alcotest.test_case "no link" `Quick no_link_drop;
          Alcotest.test_case "out-of-range ports rejected" `Quick
            out_of_range_ports_rejected;
          Alcotest.test_case "in-flight survives failure" `Quick failed_link_keeps_in_flight;
          Alcotest.test_case "queued dropped on mid-stream failure" `Quick
            queued_frames_dropped_when_link_dies_midstream;
          Alcotest.test_case "undelivered counted" `Quick undelivered_counted;
        ] );
      ( "corruption",
        [ Alcotest.test_case "ber flips bytes" `Quick corruption_flips_bytes ] );
      ( "batching",
        [
          Alcotest.test_case "batched = unbatched (preempt, purge)" `Quick
            batched_equals_unbatched;
        ] );
      ( "trace",
        [ Alcotest.test_case "captures drops" `Quick trace_captures_drops ] );
      ( "ties",
        [ Alcotest.test_case "probes at the finish instant" `Quick ties_at_finish ] );
      ( "golden",
        [
          Alcotest.test_case "seeded op sequences" `Quick golden_port_layer;
          Alcotest.test_case "purge flight order" `Quick purge_flight_order;
        ] );
    ]

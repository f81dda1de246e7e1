(* Bechamel micro-benchmarks: the per-packet software costs behind §6.1.
   One Test.make per operation; results as ns/op estimates. *)

open Bechamel
open Toolkit

module Seg = Viper.Segment
module Pkt = Viper.Packet
module G = Topo.Graph
module W = Netsim.World

let ether_info =
  let w = Wire.Buf.create_writer 14 in
  Ether.Frame.write_header w
    {
      Ether.Frame.dst = Ether.Addr.of_host_id 2;
      src = Ether.Addr.of_host_id 1;
      ethertype = Ether.Frame.ethertype_sirpent;
    };
  Wire.Buf.contents w

let sample_segment = Seg.make ~info:ether_info ~port:3 ()
let sample_segment_bytes = Seg.encode sample_segment

let sample_packet =
  Pkt.build
    ~route:
      [
        Seg.make ~info:ether_info ~port:3 ();
        Seg.make ~port:7 ();
        Seg.make ~port:Seg.local_port ();
      ]
    ~data:(Bytes.make 1000 'd')

let return_seg =
  Seg.make ~flags:{ Seg.no_flags with Seg.rpf = true } ~info:ether_info ~port:11 ()

let traversed_packet =
  (* a packet after 5 hops, for reversal cost *)
  let p = ref (Pkt.build ~route:(List.init 6 (fun k -> Seg.make ~port:(if k = 5 then 0 else k + 1) ())) ~data:(Bytes.make 1000 'd')) in
  for k = 1 to 5 do
    let _, fwd = Pkt.forward !p ~return_seg:(Seg.make ~flags:{ Seg.no_flags with Seg.rpf = true } ~port:(10 + k) ()) in
    p := fwd
  done;
  Pkt.decode !p

let ip_packet =
  Bytes.cat
    (Ipbase.Header.encode
       {
         Ipbase.Header.tos = 0;
         total_length = 1020;
         ident = 7;
         dont_fragment = false;
         more_fragments = false;
         frag_offset = 0;
         ttl = 32;
         protocol = 17;
         src = Ipbase.Header.addr_of_node 1;
         dst = Ipbase.Header.addr_of_node 2;
       })
    (Bytes.make 1000 'd')

let route_table =
  let tbl = Hashtbl.create 64 in
  for k = 0 to 63 do
    Hashtbl.replace tbl k (k mod 8)
  done;
  tbl

let token_key = Token.Cipher.random_looking_key 1

let token_bytes =
  Token.Capability.to_bytes
    (Token.Capability.mint token_key ~nonce:1
       {
         Token.Capability.router_id = 1;
         port = 3;
         max_priority = 7;
         reverse_ok = true;
         account = 42;
         packet_limit = 0;
         expiry_ms = 0;
       })

let warm_cache =
  let ledger = Token.Account.create () in
  let c =
    Token.Cache.create ~key:token_key ~router_id:1 ~policy:Token.Cache.Optimistic
      ~ledger
  in
  ignore (Token.Cache.complete_verification c ~token:token_bytes ~now_ms:0);
  c

(* Steady-state churn on a heap holding [depth] live events with distinct
   seqs: each operation pops the minimum and pushes a successor a random
   distance ahead, so the heap stays at [depth]. 256 is the working set
   of a busy shard engine; 400k is the backlog depth of E24's full-scale
   saturation run. Built on first use, so other experiments do not pay
   for the deep heap. *)
let event_heap depth =
  lazy
    (let h = Sim.Heap.create () in
     let rng = Sim.Rng.create 0x4EA9L in
     let seq = ref 0 in
     for _ = 1 to depth do
       Sim.Heap.push h ~time:(Sim.Rng.int rng (4 * depth)) ~seq:!seq ();
       incr seq
     done;
     (h, rng, seq, depth))

let heap_churn heap () =
  let h, rng, seq, depth = Lazy.force heap in
  let time = Sim.Heap.min_time h in
  Sim.Heap.pop_min h;
  Sim.Heap.push h ~time:(time + 1 + Sim.Rng.int rng depth) ~seq:!seq ();
  incr seq

let shallow_heap = event_heap 256
let deep_heap = event_heap 400_000

(* L1, the world's link and port queue: one 64 B frame handed to
   [World.send] on a single link, then the engine drains its
   transmission and delivery. *)
let one_link =
  lazy
    (let g = G.create () in
     let a = G.add_node g G.Host and b = G.add_node g G.Host in
     let port, _ = G.connect g a b G.default_props in
     let engine = Sim.Engine.create () in
     let world = W.create engine g in
     W.set_handler world b (fun _ ~in_port:_ ~frame:_ ~head:_ ~tail:_ -> ());
     (engine, world, a, port, Bytes.make 64 'w'))

let world_send_deliver () =
  let engine, world, a, port, payload = Lazy.force one_link in
  ignore (W.send world ~node:a ~port (W.fresh_frame world payload));
  Sim.Engine.run engine

(* L3, the router hop: a 64 B packet handed to a router through
   [World.deliver_direct] on its in-port, switched cut-through to its
   out-port, and delivered to the host there. *)
let hop engine world ~node ~in_port payload =
  let now = Sim.Engine.now engine in
  W.deliver_direct world ~node ~in_port ~frame:(W.fresh_frame world payload)
    ~head:now ~tail:now;
  Sim.Engine.run engine

let router_hop =
  lazy
    (let g = G.create () in
     let src = G.add_node g G.Host and r = G.add_node g G.Router in
     let dst = G.add_node g G.Host in
     let _, in_port = G.connect g src r G.default_props in
     let out_port, _ = G.connect g r dst G.default_props in
     let engine = Sim.Engine.create () in
     let world = W.create engine g in
     ignore (Sirpent.Router.create world ~node:r ());
     let arrived = ref 0 in
     W.set_handler world dst (fun _ ~in_port:_ ~frame:_ ~head:_ ~tail:_ -> incr arrived);
     let data = Bytes.make 64 'd' in
     let viper =
       Pkt.build
         ~route:[ Seg.make ~port:out_port (); Seg.make ~port:Seg.local_port () ]
         ~data
     in
     let xsr = Viper.Xsr.encode ~ports:[ out_port ] ~data () in
     hop engine world ~node:r ~in_port viper;
     hop engine world ~node:r ~in_port (Bytes.copy xsr);
     if !arrived <> 2 then failwith "micro: router hop did not forward";
     (engine, world, r, in_port, viper, xsr, Bytes.copy xsr))

(* the VIPER hop copies its input; the packet is reused *)
let router_hop_viper () =
  let engine, world, r, in_port, viper, _, _ = Lazy.force router_hop in
  hop engine world ~node:r ~in_port viper

(* the XSR hop advances its header in place: each hop gets a fresh copy *)
let router_hop_xsr () =
  let engine, world, r, in_port, _, xsr, buf = Lazy.force router_hop in
  Bytes.blit xsr 0 buf 0 (Bytes.length xsr);
  hop engine world ~node:r ~in_port buf

let tests =
  [
    Test.make ~name:"world send+deliver, one link" (Staged.stage world_send_deliver);
    Test.make ~name:"router hop, viper (deliver_direct)" (Staged.stage router_hop_viper);
    Test.make ~name:"router hop, xsr (deliver_direct)" (Staged.stage router_hop_xsr);
    Test.make ~name:"viper segment encode" (Staged.stage (fun () ->
        ignore (Seg.encode sample_segment)));
    Test.make ~name:"sim heap push+pop (256 live)"
      (Staged.stage (heap_churn shallow_heap));
    Test.make ~name:"viper segment decode" (Staged.stage (fun () ->
        ignore (Seg.decode sample_segment_bytes)));
    Test.make ~name:"sirpent per-hop forward (strip+trailer)" (Staged.stage (fun () ->
        ignore (Pkt.forward sample_packet ~return_seg)));
    Test.make ~name:"ip per-hop forward (cksum+ttl+lookup)" (Staged.stage (fun () ->
        let p = Bytes.copy ip_packet in
        ignore (Ipbase.Header.checksum_ok p);
        ignore (Ipbase.Header.decrement_ttl p);
        let h = Ipbase.Header.decode p in
        ignore (Hashtbl.find_opt route_table (Ipbase.Header.node_of_addr h.Ipbase.Header.dst land 63))));
    Test.make ~name:"token cache hit" (Staged.stage (fun () ->
        ignore
          (Token.Cache.check warm_cache ~token:token_bytes ~port:3 ~priority:0
             ~now_ms:0 ~packet_bytes:1000 ~reverse:false)));
    Test.make ~name:"token full verification" (Staged.stage (fun () ->
        match Token.Capability.of_bytes token_bytes with
        | Some c -> ignore (Token.Capability.verify token_key c)
        | None -> ()));
    Test.make ~name:"return-route reversal (5 hops)" (Staged.stage (fun () ->
        ignore (Pkt.return_route traversed_packet)));
  ]

(* Runs after [tests]: while its 400k-entry heap is live, major GC work
   inflates every other case. It also runs without Bechamel's per-sample
   GC stabilization, whose compaction moves the deep heap's arrays and
   leaves every sample starting from a cold cache. *)
let deep_tests =
  [
    Test.make ~name:"sim heap push+pop (400k live)"
      (Staged.stage (heap_churn deep_heap));
  ]

let run () =
  Util.heading "M  micro-benchmarks (ns per operation)";
  let instances = [ Instance.monotonic_clock ] in
  let measure ~stabilize tests =
    let cfg =
      Benchmark.cfg ~limit:1000 ~stabilize ~quota:(Time.second 0.4) ~kde:(Some 500) ()
    in
    List.map (fun test -> Benchmark.all cfg instances test) tests
  in
  ignore (Lazy.force shallow_heap);
  let raw = measure ~stabilize:true tests in
  ignore (Lazy.force deep_heap);
  let raw = raw @ measure ~stabilize:false deep_tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun results ->
      let results = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-42s %10.1f ns/op\n" name est
          | Some _ | None -> Printf.printf "  %-42s (no estimate)\n" name)
        results)
    raw;
  Printf.printf
    "\nnotes: these compare header-manipulation work only — a real 1989 IP\n\
     router also pays route lookup, buffering and interrupts, which the\n\
     simulator charges as its per-packet process time. The token numbers show\n\
     why the cache exists: a hit is ~30x cheaper than full verification.\n"

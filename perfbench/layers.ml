(* Per-layer replays: each drives one layer through its public interface
   on inputs shaped like a workload's (depth, frame size, captured
   packets) and returns host ns and GC words per unit of work. *)

module G = Topo.Graph
module W = Netsim.World
module M = Measure

type cost = { ns : float; words : float }

let zero = { ns = 0.0; words = 0.0 }

let loop_cost ~span ~units f =
  Gc.compact ();
  Spans.with_span (Spans.name span) ~id:0 (fun () ->
      let w0 = M.gc_words () in
      let t0 = M.now_ns () in
      f ();
      let dt = M.now_ns () - t0 in
      let dw = M.gc_words () -. w0 in
      let u = float_of_int (max 1 units) in
      { ns = float_of_int dt /. u; words = dw /. u })

(* Sim.Heap: one event is a pop of the minimum and a push of its
   successor, with the heap held at [depth] entries. *)
let heap ~seed ~depth ~ops =
  let h = Sim.Heap.create () in
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let seq = ref 0 in
  for _ = 1 to max 1 depth do
    Sim.Heap.push h ~time:(Sim.Rng.int rng 1_000_000) ~seq:!seq ();
    incr seq
  done;
  loop_cost ~span:"replay.heap" ~units:ops (fun () ->
      for _ = 1 to ops do
        match Sim.Heap.pop h with
        | Some (t, _, v) ->
          Sim.Heap.push h ~time:(t + 1 + Sim.Rng.int rng 1000) ~seq:!seq v;
          incr seq
        | None -> ()
      done)

(* Netsim.World: World.send of one frame, then the engine drains its
   transmission and delivery on a single link. *)
let world_link ~props ~frame_bytes ~frames =
  let g = G.create () in
  let a = G.add_node g G.Host and b = G.add_node g G.Host in
  let port, _ = G.connect g a b props in
  let engine = Sim.Engine.create () in
  let world = W.create engine g in
  let got = ref 0 in
  W.set_handler world b (fun _ ~in_port:_ ~frame:_ ~head:_ ~tail:_ -> incr got);
  let payload = Bytes.make (max 1 frame_bytes) 'w' in
  let c =
    loop_cost ~span:"replay.world" ~units:frames (fun () ->
        for _ = 1 to frames do
          ignore (W.send world ~node:a ~port (W.fresh_frame world payload));
          Sim.Engine.run engine
        done)
  in
  if !got <> frames then failwith "world replay: frames lost on one link";
  c

(* Frames arriving at one router node, captured before the router sees
   them. Installing the capture wraps the router's own handler. *)
type capture = { mutable frames : (int * bytes) list; mutable left : int }

let capture world ~node router ~max =
  let cap = { frames = []; left = max } in
  let forward = Sirpent.Router.handle_frame router in
  W.set_handler world node (fun w ~in_port ~frame ~head ~tail ->
      if cap.left > 0 then begin
        cap.left <- cap.left - 1;
        cap.frames <- (in_port, Bytes.copy frame.Netsim.Frame.payload) :: cap.frames
      end;
      forward w ~in_port ~frame ~head ~tail);
  cap

let captured cap = Array.of_list (List.rev cap.frames)

let split_formats frames =
  let xsr, viper =
    List.partition (fun (_, b) -> Viper.Xsr.is_xsr b) (Array.to_list frames)
  in
  (Array.of_list viper, Array.of_list xsr)

(* Viper.Packet.forward: strip the leading segment and append the return
   segment; the input buffer is not mutated, so packets are reused. *)
let viper_hop ~packets ~ops =
  let n = Array.length packets in
  if n = 0 then zero
  else begin
    let ret = Array.map (fun (p, _) -> Viper.Segment.make ~port:p ()) packets in
    let bufs = Array.map snd packets in
    loop_cost ~span:"replay.viper" ~units:ops (fun () ->
        for i = 0 to ops - 1 do
          let k = i mod n in
          ignore (Viper.Packet.forward bufs.(k) ~return_seg:ret.(k))
        done)
  end

(* Viper.Xsr.step mutates its buffer in place, so every step gets its own
   copy, made before timing starts. *)
let xsr_hop ~packets ~ops =
  let n = Array.length packets in
  if n = 0 then zero
  else begin
    let ports = Array.init ops (fun i -> fst packets.(i mod n)) in
    let bufs = Array.init ops (fun i -> Bytes.copy (snd packets.(i mod n))) in
    let bad = ref 0 in
    let c =
      loop_cost ~span:"replay.xsr" ~units:ops (fun () ->
          for i = 0 to ops - 1 do
            match Viper.Xsr.step bufs.(i) ~in_port:ports.(i) with
            | Viper.Xsr.Malformed _ -> incr bad
            | _ -> ()
          done)
    in
    if !bad > 0 then failwith "xsr replay: captured packet failed verification";
    c
  end

(* Sirpent.Router hop: captured frames are handed to a router node with
   World.deliver_direct, 16 at a time, and the engine drains what the
   router sends on. [build] makes a world holding that router. *)
let router_hop ~build ~frames ~ops =
  let n = Array.length frames in
  if n = 0 then zero
  else begin
    let engine, world, node = build () in
    let ports = Array.init ops (fun i -> fst frames.(i mod n)) in
    let bufs = Array.init ops (fun i -> Bytes.copy (snd frames.(i mod n))) in
    loop_cost ~span:"replay.router" ~units:ops (fun () ->
        let i = ref 0 in
        while !i < ops do
          let stop = min ops (!i + 16) in
          let now = Sim.Engine.now engine in
          for j = !i to stop - 1 do
            W.deliver_direct world ~node ~in_port:ports.(j)
              ~frame:(W.fresh_frame world bufs.(j)) ~head:now ~tail:now
          done;
          Sim.Engine.run engine;
          i := stop
        done)
  end

(* Port counters summed or maximised over every connected port. *)
type ports = {
  frames : int;
  bytes : int;
  drops : int;
  queue_max : float;
  router_util_max : float;
}

let port_totals g world =
  let acc = ref { frames = 0; bytes = 0; drops = 0; queue_max = 0.0; router_util_max = 0.0 } in
  G.iter_nodes g (fun node ->
      List.iter
        (fun (port, _) ->
          let s = W.port_stats world ~node ~port in
          let a = !acc in
          acc :=
            {
              frames = a.frames + s.W.sent_frames;
              bytes = a.bytes + s.W.sent_bytes;
              drops = a.drops + s.W.dropped_blocked + s.W.dropped_overflow + s.W.dropped_no_link;
              queue_max = Float.max a.queue_max s.W.max_queue;
              router_util_max =
                (if G.kind g node = G.Router then
                   Float.max a.router_util_max (W.utilization world ~node ~port)
                 else a.router_util_max);
            })
        (G.ports g node));
  !acc

type routers = { forwarded : int; cut_throughs : int; drops : int }

let router_totals rs =
  List.fold_left
    (fun a r ->
      let s = Sirpent.Router.stats r in
      {
        forwarded = a.forwarded + s.Sirpent.Router.forwarded;
        cut_throughs = a.cut_throughs + s.Sirpent.Router.cut_throughs;
        drops =
          a.drops + s.Sirpent.Router.send_drops + s.Sirpent.Router.dropped_malformed
          + s.Sirpent.Router.unauthorized;
      })
    { forwarded = 0; cut_throughs = 0; drops = 0 }
    rs

type event = { action : unit -> unit; mutable cancelled : bool }

type handle = event

type t = {
  mutable clock : Time.t;
  mutable next_seq : int;
  mutable running_seq : int;
      (* seq of the event now running (time = clock); between runs,
         [next_seq] as the last run ended, so every key reserved before
         then at or before the clock has passed *)
  mutable horizon : Time.t;  (* latest reserved time *)
  mutable executed : int;
  queue : event Heap.t;
}

let create () =
  {
    clock = Time.zero;
    next_seq = 0;
    running_seq = 0;
    horizon = Time.zero;
    executed = 0;
    queue = Heap.create ();
  }

let now t = t.clock
let executed t = t.executed

let reserve t ~time =
  if time < t.clock then invalid_arg "Engine.reserve: time in the past";
  let s = t.next_seq in
  t.next_seq <- s + 1;
  if time > t.horizon then t.horizon <- time;
  s

let schedule_at t ~time f =
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  let e = { action = f; cancelled = false } in
  Heap.push t.queue ~time ~seq:t.next_seq e;
  t.next_seq <- t.next_seq + 1;
  e

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock + delay) f

let schedule_keyed t ~time ~seq f =
  if time < t.clock then invalid_arg "Engine.schedule_keyed: time in the past";
  if seq < 0 then invalid_arg "Engine.schedule_keyed: negative seq";
  let e = { action = f; cancelled = false } in
  Heap.push t.queue ~time ~seq e;
  e

(* Locally scheduled events take sequence numbers 0, 1, 2, ...; events
   merged in from another shard carry keys at or above this base, so at
   equal time every local event of a tick sorts before foreign arrivals
   and foreign arrivals sort by their own deterministic keys. *)
let foreign_seq_base = 1 lsl 60

let schedule_foreign t ~time ~seq f =
  if time < t.clock then invalid_arg "Engine.schedule_foreign: time in the past";
  if seq < foreign_seq_base then
    invalid_arg "Engine.schedule_foreign: seq below foreign_seq_base";
  Heap.push t.queue ~time ~seq { action = f; cancelled = false }

let cancel _t handle = handle.cancelled <- true

let precedes_running t ~time ~seq =
  time < t.clock || (time = t.clock && seq < t.running_seq)

let set_running t ~seq = t.running_seq <- seq

let run ?until ?(max_events = max_int) t =
  let q = t.queue in
  let limit = match until with Some u -> u | None -> max_int in
  let executed = ref 0 in
  while !executed < max_events && (not (Heap.is_empty q)) && Heap.min_time q <= limit do
    t.clock <- Heap.min_time q;
    t.running_seq <- Heap.min_seq q;
    let e = Heap.pop_min q in
    if not e.cancelled then begin
      e.action ();
      incr executed;
      t.executed <- t.executed + 1
    end
  done;
  let drained = Heap.is_empty q || Heap.min_time q > limit in
  if drained then begin
    t.running_seq <- t.next_seq;
    (* a reserved key that was never pushed still marks the instant an
       eager event would have been popped at: an unbounded run ends there *)
    if until = None && t.clock < t.horizon then t.clock <- t.horizon
  end;
  match until with
  | Some u when t.clock < u -> t.clock <- u
  | Some _ | None -> ()

let pending t = Heap.size t.queue
let next_time t = if Heap.is_empty t.queue then max_int else Heap.min_time t.queue

let precedes_next t ~time ~seq =
  Heap.is_empty t.queue
  ||
  let ht = Heap.min_time t.queue in
  time < ht || (time = ht && seq < Heap.min_seq t.queue)

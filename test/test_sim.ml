(* Tests for the discrete-event simulation engine and measurement tools. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* Time *)

let time_units () =
  check_int "us" 1_000 (Sim.Time.us 1);
  check_int "ms" 1_000_000 (Sim.Time.ms 1);
  check_int "s" 1_000_000_000 (Sim.Time.s 1);
  check_float "to_seconds" 1.5 (Sim.Time.to_seconds (Sim.Time.ms 1500))

let time_transmission () =
  (* 1500 bytes at 10 Mb/s = 1.2 ms *)
  check_int "1500B @ 10Mbps"
    (Sim.Time.ms 1 + Sim.Time.us 200)
    (Sim.Time.transmission ~bits:12000 ~rate_bps:10_000_000);
  (* rounding up *)
  check_int "1 bit @ 1Gbps" 1 (Sim.Time.transmission ~bits:1 ~rate_bps:1_000_000_000)

let time_pp () =
  let s t = Format.asprintf "%a" Sim.Time.pp t in
  Alcotest.(check string) "ns" "500ns" (s 500);
  Alcotest.(check string) "us" "12.00us" (s (Sim.Time.us 12));
  Alcotest.(check string) "ms" "3.50ms" (s (Sim.Time.us 3500))

(* Rng *)

let rng_deterministic () =
  let a = Sim.Rng.create 7L and b = Sim.Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done

let rng_split_independent () =
  let a = Sim.Rng.create 7L in
  let c = Sim.Rng.split a in
  check_bool "split differs from parent stream" true
    (Sim.Rng.bits64 a <> Sim.Rng.bits64 c)

let rng_int_bounds () =
  let rng = Sim.Rng.create 1L in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.int rng 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let rng_float_bounds () =
  let rng = Sim.Rng.create 2L in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.float rng 3.0 in
    check_bool "in range" true (v >= 0.0 && v < 3.0)
  done

let rng_exponential_mean () =
  let rng = Sim.Rng.create 3L in
  let n = 100_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Sim.Rng.exponential rng ~mean:2.0
  done;
  let mean = !total /. float_of_int n in
  check_bool "mean near 2" true (abs_float (mean -. 2.0) < 0.05)

let rng_uniform_int_inclusive () =
  let rng = Sim.Rng.create 4L in
  let seen_lo = ref false and seen_hi = ref false in
  for _ = 1 to 1000 do
    let v = Sim.Rng.uniform_int rng ~lo:3 ~hi:5 in
    check_bool "range" true (v >= 3 && v <= 5);
    if v = 3 then seen_lo := true;
    if v = 5 then seen_hi := true
  done;
  check_bool "hits lo" true !seen_lo;
  check_bool "hits hi" true !seen_hi

let rng_shuffle_permutes () =
  let rng = Sim.Rng.create 5L in
  let a = Array.init 20 (fun i -> i) in
  Sim.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 20 (fun i -> i)) sorted

(* Heap *)

let pop_value h =
  if Sim.Heap.is_empty h then "?" else Sim.Heap.pop_min h

let heap_orders_by_time () =
  let h = Sim.Heap.create () in
  Sim.Heap.push h ~time:30 ~seq:0 "c";
  Sim.Heap.push h ~time:10 ~seq:1 "a";
  Sim.Heap.push h ~time:20 ~seq:2 "b";
  let first = pop_value h in
  let second = pop_value h in
  let third = pop_value h in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ first; second; third ]

let heap_fifo_within_time () =
  let h = Sim.Heap.create () in
  Sim.Heap.push h ~time:5 ~seq:0 "first";
  Sim.Heap.push h ~time:5 ~seq:1 "second";
  let first = pop_value h in
  let second = pop_value h in
  Alcotest.(check (list string)) "fifo" [ "first"; "second" ] [ first; second ]

let heap_many_random () =
  let rng = Sim.Rng.create 9L in
  let h = Sim.Heap.create () in
  for i = 0 to 999 do
    Sim.Heap.push h ~time:(Sim.Rng.int rng 100) ~seq:i i
  done;
  let last = ref min_int in
  let count = ref 0 in
  while not (Sim.Heap.is_empty h) do
    let time = Sim.Heap.min_time h in
    ignore (Sim.Heap.pop_min h);
    check_bool "monotone" true (time >= !last);
    last := time;
    incr count
  done;
  check_int "all popped" 1000 !count

(* Float values are stored boxed in an ordinary array, never in a flat
   float array built from the immediate filler. *)
let heap_float_values () =
  let h = Sim.Heap.create () in
  List.iteri (fun i x -> Sim.Heap.push h ~time:(-i) ~seq:i x) [ 0.5; 1.5; 2.5; 3.5 ];
  let popped = List.init 4 (fun _ -> Sim.Heap.pop_min h) in
  Alcotest.(check (list (float 0.0))) "floats intact" [ 3.5; 2.5; 1.5; 0.5 ] popped

let heap_empty_raises () =
  let h : int Sim.Heap.t = Sim.Heap.create () in
  Alcotest.check_raises "min_time" (Invalid_argument "Heap.min_time: empty heap")
    (fun () -> ignore (Sim.Heap.min_time h));
  Alcotest.check_raises "min_seq" (Invalid_argument "Heap.min_seq: empty heap")
    (fun () -> ignore (Sim.Heap.min_seq h));
  Alcotest.check_raises "pop_min" (Invalid_argument "Heap.pop_min: empty heap")
    (fun () -> ignore (Sim.Heap.pop_min h))

(* A popped value must not stay reachable from the heap: not from the
   vacated tail slot, nor from the root it was read out of. *)
let heap_pop_releases_value () =
  let h = Sim.Heap.create () in
  let w = Weak.create 3 in
  let fill () =
    for i = 0 to 2 do
      let v = Bytes.make 64 (Char.chr (Char.code 'a' + i)) in
      Weak.set w i (Some v);
      Sim.Heap.push h ~time:i ~seq:i v
    done
  in
  fill ();
  let live () = List.init 3 (fun i -> Weak.check w i) in
  ignore (Sim.Heap.pop_min h);
  Gc.full_major ();
  Alcotest.(check (list bool)) "first pop released" [ false; true; true ] (live ());
  ignore (Sim.Heap.pop_min h);
  ignore (Sim.Heap.pop_min h);
  Gc.full_major ();
  Alcotest.(check (list bool)) "drained heap holds nothing" [ false; false; false ]
    (live ());
  check_bool "empty" true (Sim.Heap.is_empty h)

(* Model test: random interleaved pushes and pops against a sorted-list
   reference. Times come from a small range so equal-time ties are
   common; seqs are distinct but not monotone in push order, so ties are
   broken by seq rather than by arrival; runs of up to 400 operations
   grow the heap across several capacity doublings. *)
type heap_op = Push of int * int | Pop

let heap_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun t r -> Push (t, r)) (int_range 0 15) (int_range 0 7));
        (1, return Pop);
      ])

let qcheck_heap_model =
  QCheck.Test.make ~name:"heap matches a sorted-list model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 400) heap_op_gen))
    (fun ops ->
      let h = Sim.Heap.create () in
      let model = ref [] in
      let key (t, s, _) = (t, s) in
      let ok = ref true in
      let expect b = if not b then ok := false in
      List.iteri
        (fun i op ->
          (match op with
          | Push (time, r) ->
            let seq = (r * 1_000_000) + i in
            Sim.Heap.push h ~time ~seq i;
            model :=
              List.merge (fun a b -> compare (key a) (key b)) [ (time, seq, i) ] !model
          | Pop -> (
            match !model with
            | [] -> expect (Sim.Heap.is_empty h)
            | (time, seq, v) :: rest ->
              expect (Sim.Heap.min_time h = time);
              expect (Sim.Heap.min_seq h = seq);
              expect (Sim.Heap.pop_min h = v);
              model := rest));
          expect (Sim.Heap.size h = List.length !model);
          expect (Sim.Heap.is_empty h = (!model = []));
          match !model with
          | (time, seq, _) :: _ ->
            expect (Sim.Heap.min_time h = time && Sim.Heap.min_seq h = seq)
          | [] -> ())
        ops;
      (* drain: the remainder comes out in model order *)
      List.iter
        (fun (_, _, v) ->
          expect ((not (Sim.Heap.is_empty h)) && Sim.Heap.pop_min h = v))
        !model;
      !ok && Sim.Heap.is_empty h)

(* Engine *)

let engine_runs_in_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule e ~delay:30 (fun () -> log := 3 :: !log));
  ignore (Sim.Engine.schedule e ~delay:10 (fun () -> log := 1 :: !log));
  ignore (Sim.Engine.schedule e ~delay:20 (fun () -> log := 2 :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  check_int "clock at last event" 30 (Sim.Engine.now e)

let engine_nested_schedule () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  ignore
    (Sim.Engine.schedule e ~delay:10 (fun () ->
         ignore (Sim.Engine.schedule e ~delay:5 (fun () -> fired := Sim.Engine.now e))));
  Sim.Engine.run e;
  check_int "nested at 15" 15 !fired

let engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let h = Sim.Engine.schedule e ~delay:10 (fun () -> fired := true) in
  Sim.Engine.cancel e h;
  Sim.Engine.run e;
  check_bool "cancelled" false !fired

let engine_until_stops_clock () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  ignore (Sim.Engine.schedule e ~delay:100 (fun () -> fired := true));
  Sim.Engine.run ~until:50 e;
  check_bool "not yet" false !fired;
  check_int "clock advanced to until" 50 (Sim.Engine.now e);
  Sim.Engine.run e;
  check_bool "eventually" true !fired

let engine_rejects_past () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~delay:10 (fun () -> ()));
  Sim.Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> ignore (Sim.Engine.schedule_at e ~time:5 (fun () -> ())))

(* Cancelled handles are skipped without counting as executed, and
   [~until] is inclusive: an event at exactly that time runs. *)
let engine_cancel_and_until_boundary () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let at time name =
    Sim.Engine.schedule_at e ~time (fun () -> log := name :: !log)
  in
  ignore (at 10 "a");
  let b = at 20 "b" in
  ignore (at 30 "c");
  let d = at 30 "d" in
  ignore (at 31 "e");
  Sim.Engine.cancel e b;
  Sim.Engine.cancel e d;
  Sim.Engine.run ~until:30 e;
  Alcotest.(check (list string)) "ran up to and at until" [ "a"; "c" ] (List.rev !log);
  check_int "cancelled not counted" 2 (Sim.Engine.executed e);
  check_int "clock at until" 30 (Sim.Engine.now e);
  check_int "later event still queued" 1 (Sim.Engine.pending e);
  check_int "next time" 31 (Sim.Engine.next_time e);
  Sim.Engine.run e;
  check_int "all live events ran" 3 (Sim.Engine.executed e);
  check_int "empty queue has no next time" max_int (Sim.Engine.next_time e)

let engine_max_events () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let rec loop () =
    incr count;
    ignore (Sim.Engine.schedule e ~delay:1 loop)
  in
  ignore (Sim.Engine.schedule e ~delay:1 loop);
  Sim.Engine.run ~max_events:100 e;
  check_int "bounded" 100 !count

(* A reserved key is pending until the event now running sorts after it:
   at the same instant, an event scheduled before the reservation runs
   while the key is pending, one scheduled after sees it passed. *)
let engine_reserve_tie () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let key = ref (-1) in
  let probe name () =
    log := (name, Sim.Engine.precedes_running e ~time:10 ~seq:!key) :: !log
  in
  ignore (Sim.Engine.schedule_at e ~time:10 (probe "before"));
  key := Sim.Engine.reserve e ~time:10;
  ignore (Sim.Engine.schedule_at e ~time:10 (probe "after"));
  check_bool "pending before the run" false
    (Sim.Engine.precedes_running e ~time:10 ~seq:!key);
  Sim.Engine.run e;
  Alcotest.(check (list (pair string bool)))
    "tie order" [ ("before", false); ("after", true) ] (List.rev !log);
  check_bool "passed after the run" true
    (Sim.Engine.precedes_running e ~time:10 ~seq:!key);
  (* reserved between runs at the current instant: still pending *)
  let again = Sim.Engine.reserve e ~time:10 in
  check_bool "reserved between runs is pending" false
    (Sim.Engine.precedes_running e ~time:10 ~seq:again);
  Sim.Engine.run e;
  check_bool "passed once a run drains" true
    (Sim.Engine.precedes_running e ~time:10 ~seq:again);
  Alcotest.check_raises "past" (Invalid_argument "Engine.reserve: time in the past")
    (fun () -> ignore (Sim.Engine.reserve e ~time:5))

(* An unbounded run ends where the latest reserved key would have been
   popped; a bounded one still stops at [until]. *)
let engine_reserve_watermark () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule_at e ~time:10 ignore);
  let late = Sim.Engine.reserve e ~time:50 in
  Sim.Engine.run ~until:30 e;
  check_int "until" 30 (Sim.Engine.now e);
  check_bool "late key pending" false (Sim.Engine.precedes_running e ~time:50 ~seq:late);
  Sim.Engine.run e;
  check_int "clock at the latest reserved time" 50 (Sim.Engine.now e);
  check_int "nothing executed for it" 1 (Sim.Engine.executed e);
  check_bool "late key passed" true (Sim.Engine.precedes_running e ~time:50 ~seq:late)

(* Stats *)

let summary_basics () =
  let s = Sim.Stats.Summary.create () in
  List.iter (Sim.Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check_float "mean" 2.5 (Sim.Stats.Summary.mean s);
  check_float "min" 1.0 (Sim.Stats.Summary.min s);
  check_float "max" 4.0 (Sim.Stats.Summary.max s);
  check_float "variance" 1.25 (Sim.Stats.Summary.variance s)

let summary_empty () =
  let s = Sim.Stats.Summary.create () in
  check_float "mean 0" 0.0 (Sim.Stats.Summary.mean s);
  check_int "count" 0 (Sim.Stats.Summary.count s)

let histogram_percentile () =
  let h = Sim.Stats.Histogram.create ~bucket_width:1.0 ~buckets:100 in
  for i = 1 to 100 do
    Sim.Stats.Histogram.add h (float_of_int i -. 0.5)
  done;
  check_float "p50" 50.0 (Sim.Stats.Histogram.percentile h 0.5);
  check_float "p99" 99.0 (Sim.Stats.Histogram.percentile h 0.99)

(* The documented edge behavior of Histogram.percentile (see stats.mli):
   empty -> 0 for any p; p=0 -> first bucket's upper edge; p=1 -> last
   non-empty bucket's upper edge; p>1 -> upper edge of the whole range. *)
let histogram_percentile_edges () =
  let empty = Sim.Stats.Histogram.create ~bucket_width:1.0 ~buckets:10 in
  check_float "empty p0" 0.0 (Sim.Stats.Histogram.percentile empty 0.0);
  check_float "empty p50" 0.0 (Sim.Stats.Histogram.percentile empty 0.5);
  check_float "empty p100" 0.0 (Sim.Stats.Histogram.percentile empty 1.0);
  let h = Sim.Stats.Histogram.create ~bucket_width:1.0 ~buckets:10 in
  (* one sample, far from the first bucket *)
  Sim.Stats.Histogram.add h 7.5;
  check_float "p0 is first bucket edge" 1.0 (Sim.Stats.Histogram.percentile h 0.0);
  check_float "p100 is last occupied bucket edge" 8.0
    (Sim.Stats.Histogram.percentile h 1.0);
  check_float "p>1 is range edge" 10.0 (Sim.Stats.Histogram.percentile h 1.5)

let histogram_clamps () =
  let h = Sim.Stats.Histogram.create ~bucket_width:1.0 ~buckets:10 in
  Sim.Stats.Histogram.add h (-5.0);
  Sim.Stats.Histogram.add h 100.0;
  check_int "bucket0" 1 (Sim.Stats.Histogram.bucket_count h 0);
  check_int "bucket9" 1 (Sim.Stats.Histogram.bucket_count h 9)

let timeweighted_mean () =
  let tw = Sim.Stats.Timeweighted.create ~start:0 ~initial:0.0 in
  Sim.Stats.Timeweighted.set tw ~now:10 2.0;
  (* 0 for [0,10), 2 for [10,20) -> mean 1.0 at t=20 *)
  check_float "mean" 1.0 (Sim.Stats.Timeweighted.mean tw ~now:20);
  check_float "max" 2.0 (Sim.Stats.Timeweighted.max tw)

let timeweighted_rejects_backwards () =
  let tw = Sim.Stats.Timeweighted.create ~start:0 ~initial:0.0 in
  Sim.Stats.Timeweighted.set tw ~now:10 1.0;
  Alcotest.check_raises "backwards"
    (Invalid_argument "Timeweighted.set: time went backwards") (fun () ->
      Sim.Stats.Timeweighted.set tw ~now:5 2.0)

let rate_window () =
  let r = Sim.Stats.Rate.create ~window:(Sim.Time.s 1) in
  (* 10 events of 1.0 in the window *)
  for i = 1 to 10 do
    Sim.Stats.Rate.tick r ~now:(i * Sim.Time.ms 50) ~amount:1.0
  done;
  check_float "rate" 10.0 (Sim.Stats.Rate.per_second r ~now:(Sim.Time.ms 500));
  (* far in the future everything expired *)
  check_float "expired" 0.0 (Sim.Stats.Rate.per_second r ~now:(Sim.Time.s 10))

(* Trace *)

let trace_records_and_dumps () =
  let tr = Sim.Trace.create ~capacity:8 () in
  Sim.Trace.record tr ~time:(Sim.Time.us 5) "first";
  Sim.Trace.recordf tr ~time:(Sim.Time.us 7) "port %d" 3;
  check_int "size" 2 (Sim.Trace.size tr);
  check_int "total" 2 (Sim.Trace.total tr);
  (match Sim.Trace.entries tr with
  | [ (t1, "first"); (t2, "port 3") ] ->
    check_int "time1" (Sim.Time.us 5) t1;
    check_int "time2" (Sim.Time.us 7) t2
  | _ -> Alcotest.fail "entries");
  check_bool "dump has both lines" true
    (String.length (Sim.Trace.dump tr) > 10)

let trace_ring_overwrites () =
  let tr = Sim.Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Sim.Trace.recordf tr ~time:i "e%d" i
  done;
  check_int "retains capacity" 3 (Sim.Trace.size tr);
  check_int "total counts all" 5 (Sim.Trace.total tr);
  Alcotest.(check (list string)) "oldest dropped" [ "e3"; "e4"; "e5" ]
    (List.map snd (Sim.Trace.entries tr));
  Sim.Trace.clear tr;
  check_int "cleared" 0 (Sim.Trace.size tr)

(* Capacity 0 = disabled: recordf must not even format its arguments. The
   %t callback would flip the flag if formatting ran. *)
let trace_capacity_zero_skips_formatting () =
  let tr = Sim.Trace.create ~capacity:0 () in
  let formatted = ref false in
  Sim.Trace.recordf tr ~time:0 "event %t"
    (fun _ ->
      formatted := true;
      "boom");
  check_bool "formatting skipped" false !formatted;
  Sim.Trace.record tr ~time:0 "plain";
  check_int "size stays 0" 0 (Sim.Trace.size tr);
  check_int "total stays 0" 0 (Sim.Trace.total tr);
  Alcotest.(check (list string)) "no entries" []
    (List.map snd (Sim.Trace.entries tr));
  Alcotest.(check string) "dump empty" "" (Sim.Trace.dump tr);
  Alcotest.check_raises "negative capacity still rejected"
    (Invalid_argument "Trace.create") (fun () ->
      ignore (Sim.Trace.create ~capacity:(-1) ()))

let qcheck_engine_order =
  QCheck.Test.make ~name:"events always run in nondecreasing time order" ~count:50
    QCheck.(list_of_size Gen.(1 -- 100) (int_range 0 1000))
    (fun delays ->
      let e = Sim.Engine.create () in
      let ok = ref true in
      let last = ref 0 in
      List.iter
        (fun d ->
          ignore
            (Sim.Engine.schedule e ~delay:d (fun () ->
                 if Sim.Engine.now e < !last then ok := false;
                 last := Sim.Engine.now e)))
        delays;
      Sim.Engine.run e;
      !ok)

(* Engine model: random schedule times, a random subset cancelled, run
   to a random horizon. Exactly the live events at or before the horizon
   run, in (time, scheduling order), and only they count as executed. *)
let qcheck_engine_cancel_until =
  QCheck.Test.make ~name:"engine runs exactly the live events up to until"
    ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 120) (pair (int_range 0 50) bool))
        (int_range 0 60))
    (fun (events, until) ->
      let e = Sim.Engine.create () in
      let log = ref [] in
      List.iteri
        (fun i (time, cancelled) ->
          let h = Sim.Engine.schedule_at e ~time (fun () -> log := i :: !log) in
          if cancelled then Sim.Engine.cancel e h)
        events;
      Sim.Engine.run ~until e;
      let expected =
        List.mapi (fun i (time, cancelled) -> (time, i, cancelled)) events
        |> List.filter (fun (time, _, cancelled) -> (not cancelled) && time <= until)
        |> List.sort compare
        |> List.map (fun (_, i, _) -> i)
      in
      List.rev !log = expected
      && Sim.Engine.executed e = List.length expected
      && Sim.Engine.now e = until
      && Sim.Engine.pending e
         = List.length (List.filter (fun (time, _) -> time > until) events))

(* Model: reserving keys and pushing some of them later at the reserved
   key behaves like scheduling every event eagerly and cancelling those
   never pushed. Both engines run the same plan: phase-1 items, a run to
   [until], phase-2 items at or after the clock, an unbounded run. Items
   are plain events, reservations never pushed, reservations pushed
   right after their phase is set up, or reservations pushed from inside
   an earlier-keyed plain event. Executions (id and instant), the clock
   after each run and the executed count must match, and every
   [precedes_running] answer must be "the eager event at that key has
   already been popped". *)
let qcheck_engine_reserve_model =
  let item = QCheck.(pair (int_range 0 40) (int_range 0 3)) in
  QCheck.Test.make ~name:"reserve + push at the key = schedule + cancel" ~count:300
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 40) item)
        (int_range 0 45)
        (list_of_size Gen.(0 -- 20) item))
    (fun (phase1, until, phase2) ->
      let ok = ref true in
      let expect b = if not b then ok := false in
      let eager = Sim.Engine.create () and lz = Sim.Engine.create () in
      let elog = ref [] and llog = ref [] in
      let seq = ref 0 in
      let keys = ref [] in
      let take () =
        let s = !seq in
        incr seq;
        s
      in
      let check_keys ~now ~running =
        List.iter
          (fun (time, s) ->
            expect
              (Sim.Engine.precedes_running lz ~time ~seq:s
              = (time < now || (time = now && s < running))))
          !keys
      in
      let plain id time =
        let s = take () in
        ignore (Sim.Engine.schedule_at eager ~time (fun () -> elog := (id, time) :: !elog));
        ignore
          (Sim.Engine.schedule_at lz ~time (fun () ->
               llog := (id, Sim.Engine.now lz) :: !llog;
               check_keys ~now:(Sim.Engine.now lz) ~running:s))
      in
      let phase ~base items =
        let top = ref [] in
        List.iteri
          (fun i (dt, mode) ->
            let id = (base * 1000) + i and time = Sim.Engine.now lz + dt in
            match mode with
            | 0 -> plain id time
            | mode ->
              let pusher =
                if mode = 3 then begin
                  (* a plain event keyed before the reservation pushes it *)
                  let ps = take () and at = Sim.Engine.now lz + (dt / 2) in
                  ignore (Sim.Engine.schedule_at eager ~time:at ignore);
                  let cell = ref None in
                  ignore
                    (Sim.Engine.schedule_at lz ~time:at (fun () ->
                         check_keys ~now:(Sim.Engine.now lz) ~running:ps;
                         Option.iter (fun f -> f ()) !cell));
                  Some cell
                end
                else None
              in
              let h =
                Sim.Engine.schedule_at eager ~time (fun () -> elog := (id, time) :: !elog)
              in
              if mode = 1 then Sim.Engine.cancel eager h;
              let s = Sim.Engine.reserve lz ~time in
              expect (s = !seq);
              incr seq;
              keys := (time, s) :: !keys;
              let push () =
                ignore
                  (Sim.Engine.schedule_keyed lz ~time ~seq:s (fun () ->
                       llog := (id, Sim.Engine.now lz) :: !llog;
                       check_keys ~now:(Sim.Engine.now lz) ~running:s))
              in
              (match (mode, pusher) with
              | 2, _ -> top := push :: !top
              | 3, Some cell -> cell := Some push
              | _ -> ()))
          items;
        List.iter (fun f -> f ()) (List.rev !top)
      in
      phase ~base:1 phase1;
      Sim.Engine.run ~until eager;
      Sim.Engine.run ~until lz;
      expect (Sim.Engine.now lz = Sim.Engine.now eager);
      check_keys ~now:until ~running:!seq;
      (* phase-2 keys at the current instant are pending until the run *)
      let mark = !seq in
      phase ~base:2 phase2;
      check_keys ~now:until ~running:mark;
      Sim.Engine.run eager;
      Sim.Engine.run lz;
      expect (Sim.Engine.now lz = Sim.Engine.now eager);
      check_keys ~now:max_int ~running:0;
      expect (List.rev !llog = List.rev !elog);
      expect (Sim.Engine.executed lz = Sim.Engine.executed eager);
      !ok)

let () =
  Alcotest.run "sim"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick time_units;
          Alcotest.test_case "transmission" `Quick time_transmission;
          Alcotest.test_case "pretty printing" `Quick time_pp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "split independent" `Quick rng_split_independent;
          Alcotest.test_case "int bounds" `Quick rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick rng_float_bounds;
          Alcotest.test_case "exponential mean" `Quick rng_exponential_mean;
          Alcotest.test_case "uniform_int inclusive" `Quick rng_uniform_int_inclusive;
          Alcotest.test_case "shuffle permutes" `Quick rng_shuffle_permutes;
        ] );
      ( "heap",
        [
          Alcotest.test_case "orders by time" `Quick heap_orders_by_time;
          Alcotest.test_case "fifo within a time" `Quick heap_fifo_within_time;
          Alcotest.test_case "many random" `Quick heap_many_random;
          Alcotest.test_case "float values" `Quick heap_float_values;
          Alcotest.test_case "empty accessors raise" `Quick heap_empty_raises;
          Alcotest.test_case "pop releases value" `Quick heap_pop_releases_value;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runs in order" `Quick engine_runs_in_order;
          Alcotest.test_case "nested scheduling" `Quick engine_nested_schedule;
          Alcotest.test_case "cancel" `Quick engine_cancel;
          Alcotest.test_case "until stops clock" `Quick engine_until_stops_clock;
          Alcotest.test_case "rejects the past" `Quick engine_rejects_past;
          Alcotest.test_case "max_events bounds" `Quick engine_max_events;
          Alcotest.test_case "cancel and until boundary" `Quick
            engine_cancel_and_until_boundary;
          Alcotest.test_case "reserved key tie" `Quick engine_reserve_tie;
          Alcotest.test_case "reserved time watermark" `Quick engine_reserve_watermark;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary basics" `Quick summary_basics;
          Alcotest.test_case "summary empty" `Quick summary_empty;
          Alcotest.test_case "histogram percentile" `Quick histogram_percentile;
          Alcotest.test_case "histogram percentile edges" `Quick
            histogram_percentile_edges;
          Alcotest.test_case "histogram clamps" `Quick histogram_clamps;
          Alcotest.test_case "timeweighted mean" `Quick timeweighted_mean;
          Alcotest.test_case "timeweighted monotone" `Quick timeweighted_rejects_backwards;
          Alcotest.test_case "rate window" `Quick rate_window;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records and dumps" `Quick trace_records_and_dumps;
          Alcotest.test_case "ring overwrites" `Quick trace_ring_overwrites;
          Alcotest.test_case "capacity 0 disables" `Quick
            trace_capacity_zero_skips_formatting;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_engine_order;
            qcheck_heap_model;
            qcheck_engine_cancel_until;
            qcheck_engine_reserve_model;
          ] );
    ]

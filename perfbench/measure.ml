(* Clocks, GC counters, order statistics and the result line shared by
   every workload. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]
(* CLOCK_MONOTONIC in nanoseconds; the stub ships with
   [bechamel.monotonic_clock]. Declared here so the call never boxes. *)

let now_ns () = Int64.to_int (clock_ns ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Words the program allocated: minor allocations plus direct major
   allocations (promotions are minor words moving, not new words). *)
let gc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Nearest-rank percentile. *)
let percentile a p =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio_i a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Deterministic 63-bit mixer (splitmix64 finalizer): payload contents
   are a pure function of (seed, packet id, word index). *)
let mix x =
  let x = x lxor (x lsr 30) in
  let x = x * 0xBF58476D1CE4E5B in
  let x = x lxor (x lsr 27) in
  let x = x * 0x94D049BB133111E in
  x lxor (x lsr 31)

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** self-test size: every phase runs, on toy inputs *)
}

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* Correctness checks print one line each; the self-test counts them. *)
let check name ok detail =
  Printf.printf "check %-34s %s  %s\n%!" name (if ok then "ok" else "FAILED") detail;
  ok

(* Repeat [rep] until [seconds] of wall time have passed, at least
   [min_reps] times, and return the samples in order. *)
let repeat ~seconds ~min_reps rep =
  let t0 = now_ns () in
  let rec go acc n =
    if n >= min_reps && seconds_since t0 >= seconds then List.rev acc
    else go (rep n :: acc) (n + 1)
  in
  go [] 0

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result r =
  Printf.printf "\n%-34s %18s  %-8s %s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun m ->
      Printf.printf "%-34s %18.6f  %-8s %d\n" m.name m.value m.unit_ m.samples)
    r.metrics;
  let body =
    List.map
      (fun m ->
        let v = if Float.is_finite m.value then m.value else 0.0 in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float v)
          m.unit_)
      r.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed (String.concat ", " body)

(* Set-up time: run [build] repeatedly until 40 ms have passed and
   report the median, so that a set-up of well under a millisecond is
   still measured steadily. Returns the last instance built. *)
let setup build =
  let rec go acc n =
    let t0 = now_ns () in
    let x = build () in
    let acc = seconds_since t0 :: acc in
    if n >= 200 || List.fold_left ( +. ) 0.0 acc >= 0.04 then (x, median acc)
    else go acc (n + 1)
  in
  go [] 1

(* Host speed reference. The benchmark was built on a shared virtual
   machine whose speed swung by a third over minutes, which no amount of
   repetition inside a 25 s run averages out. A fixed piece of
   benchmark-owned work is timed at the start of every repetition, in two
   parts like the simulator's own inner loop: sifting a 64k-entry binary
   heap of boxed values, with fresh allocation at each step, and then
   churning small blocks through a 64k-slot table, so that minor
   collections promote them and the major collector has work. Across
   repetitions its speed moved with the simulator's, and host times are
   reported scaled to a host on which this kernel takes [reference_s].
   It shares no code with lib/, so a change there moves the simulator
   and not the kernel. *)
let reference_s = 0.15

let heap_kernel next =
  let n = 65536 in
  let keys = Array.make n 0 and vals = Array.make n [] in
  for i = 0 to n - 1 do
    keys.(i) <- next ();
    vals.(i) <- [ i ]
  done;
  let swap i j =
    let k = keys.(i) and v = vals.(i) in
    keys.(i) <- keys.(j);
    vals.(i) <- vals.(j);
    keys.(j) <- k;
    vals.(j) <- v
  in
  let rec down i =
    let l = (2 * i) + 1 in
    if l < n then begin
      let c = if l + 1 < n && keys.(l + 1) < keys.(l) then l + 1 else l in
      if keys.(c) < keys.(i) then begin
        swap i c;
        down c
      end
    end
  in
  for i = n / 2 downto 0 do
    down i
  done;
  let t0 = now_ns () in
  for _ = 1 to 400_000 do
    keys.(0) <- keys.(0) + (next () land 0xFFFF);
    vals.(0) <- [ keys.(0); 1; 2 ];
    down 0
  done;
  seconds_since t0

let churn_kernel next =
  let n = 65536 in
  let live = Array.make n [] in
  let t0 = now_ns () in
  for i = 1 to 400_000 do
    let j = next () land (n - 1) in
    live.(j) <- [ i; j; i + j ]
  done;
  ignore (Sys.opaque_identity live);
  seconds_since t0

let reference_kernel () =
  let rng = ref 12345 in
  let next () =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !rng
  in
  let heap_s = heap_kernel next in
  heap_s +. churn_kernel next

(* One repetition of a workload: the reference kernel, then set-up,
   then the timed phase. *)
type rep = { setup_s : float; wall_s : float; ops : int; words : float; kernel_s : float }

(* Time the reference kernel, set up with [build], time [run] on a
   compacted heap, and count the repetition's ops with [ops]. Compacting
   before each step frees the previous repetition and the kernel's
   garbage, so peak RSS is that of one instance or of the kernel alone. *)
let rep ~build ~run ~ops =
  Gc.compact ();
  let kernel_s = reference_kernel () in
  Gc.compact ();
  let x, setup_s = setup build in
  Gc.compact ();
  let w0 = gc_words () in
  let t0 = now_ns () in
  let r = run x in
  let wall_s = seconds_since t0 in
  let words = gc_words () -. w0 in
  (x, r, { setup_s; wall_s; ops = ops x; words; kernel_s })

let end_to_end reps =
  let n = List.length reps in
  List.iteri
    (fun i r ->
      Printf.printf
        "rep %2d  setup %.4f s  timed %.4f s  kernel %.4f s  ops %d  words/op %.3f\n" i
        r.setup_s r.wall_s r.kernel_s r.ops (r.words /. float_of_int (max 1 r.ops)))
    reps;
  let med f = median (List.map f reps) in
  let scale r = reference_s /. r.kernel_s in
  [
    metric ~samples:n "setup_s" "s" (med (fun r -> r.setup_s *. scale r));
    metric ~samples:n "ops_per_s" "1/s"
      (med (fun r -> float_of_int r.ops /. (r.wall_s *. scale r)));
    metric ~samples:n "gc_words_per_op" "words"
      (med (fun r -> r.words /. float_of_int (max 1 r.ops)));
    metric "peak_rss_mb" "MiB" (peak_rss_mb ());
  ]

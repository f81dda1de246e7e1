(* In-memory span recorder for the traced run.

   A span is (name, start, end, parent span, id): the id is shared by
   every span of one packet, transaction or query. Spans sit in flat
   growable int arrays, so recording one costs two clock reads and a few
   stores; nothing is written until [write_trace_events] at the end of
   the run. When tracing is off [enter] returns -1 without reading the
   clock. *)

type t = {
  mutable on : bool;
  mutable n : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable id : int array;
  mutable current : int;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
}

let global =
  {
    on = false;
    n = 0;
    name = [||];
    start = [||];
    stop = [||];
    parent = [||];
    id = [||];
    current = -1;
    names = Hashtbl.create 16;
    name_of = [||];
  }
let set_enabled b = global.on <- b
let enabled () = global.on

let reset () =
  global.n <- 0;
  global.current <- -1

(* Intern a span name once, outside the hot path. *)
let name s =
  match Hashtbl.find_opt global.names s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length global.names in
    Hashtbl.replace global.names s i;
    global.name_of <- Array.append global.name_of [| s |];
    i

let grow t =
  let cap = max 1024 (2 * Array.length t.start) in
  let ext a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.name <- ext t.name;
  t.start <- ext t.start;
  t.stop <- ext t.stop;
  t.parent <- ext t.parent;
  t.id <- ext t.id

let enter nm ~id =
  let t = global in
  if not t.on then -1
  else begin
    if t.n = Array.length t.start then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- nm;
    t.parent.(i) <- t.current;
    t.id.(i) <- id;
    t.current <- i;
    t.start.(i) <- Measure.now_ns ();
    i
  end

let leave i =
  if i >= 0 then begin
    let t = global in
    t.stop.(i) <- Measure.now_ns ();
    t.current <- t.parent.(i)
  end

let with_span nm ~id f =
  let s = enter nm ~id in
  Fun.protect ~finally:(fun () -> leave s) f

(* Per span name: count, total duration and self time (duration minus
   the part covered by direct children), in ns. *)
type agg = { count : int; total_ns : int; self_ns : int }

let aggregate () =
  let t = global in
  let child = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (t.stop.(i) - t.start.(i))
  done;
  let acc = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let d = t.stop.(i) - t.start.(i) in
    let c, tot, self =
      Option.value (Hashtbl.find_opt acc t.name.(i)) ~default:(0, 0, 0)
    in
    Hashtbl.replace acc t.name.(i) (c + 1, tot + d, self + d - child.(i))
  done;
  Hashtbl.fold
    (fun nm (count, total_ns, self_ns) l ->
      (t.name_of.(nm), { count; total_ns; self_ns }) :: l)
    acc []
  |> List.sort compare

let find aggs s = List.assoc_opt s aggs

let mean_self_ns aggs s =
  match find aggs s with
  | Some a when a.count > 0 -> float_of_int a.self_ns /. float_of_int a.count
  | _ -> 0.0

let duration i =
  if i < 0 then 0.0 else float_of_int (global.stop.(i) - global.start.(i))

(* Durations (ns) of every span with this name, in recording order. *)
let durations nm =
  let t = global in
  let out = ref [] in
  for i = t.n - 1 downto 0 do
    if t.name.(i) = nm then out := float_of_int (t.stop.(i) - t.start.(i)) :: !out
  done;
  Array.of_list !out

(* Chrome trace-event JSON ("X" complete events, microsecond floats),
   written with plain printf: no JSON library needed. Spans whose id
   fails [keep] are left out of the file (they still count in
   [aggregate]). *)
let write_trace_events ~path ~workload ~keep =
  let t = global in
  let oc = open_out path in
  let base = if t.n > 0 then t.start.(0) else 0 in
  Printf.fprintf oc
    "{\"displayTimeUnit\": \"ns\", \"otherData\": {\"workload\": %S}, \"traceEvents\": [\n"
    workload;
  let sep = ref "" in
  for i = 0 to t.n - 1 do
    if keep t.id.(i) then begin
      Printf.fprintf oc
        "%s{\"name\": %S, \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %d, \"parent\": %d, \"id\": %d}}\n"
        !sep t.name_of.(t.name.(i))
        (float_of_int (t.start.(i) - base) /. 1e3)
        (float_of_int (t.stop.(i) - t.start.(i)) /. 1e3)
        i t.parent.(i) t.id.(i);
      sep := ","
    end
  done;
  output_string oc "]}\n";
  close_out oc

(* CI perf-regression gate: compare a smoke-run BENCH_<exp>.json against
   its committed baseline in bench/baselines/.

     check_regression.exe [--tolerance 0.25] [--min-speedup X]
                          [--min-ratio KEY X]... [--max-ratio KEY X]...
                          [--throughput KEY]... BASELINE CURRENT

   The simulations are deterministic (seeded RNG streams, virtual time),
   so the guarded numbers are exactly reproducible on any machine; the
   tolerance only leaves headroom for intentional small retunings.
   Checked, by JSON key, at every depth:

     throughput-like (delivered, completed, goodput)
         fail when current < (1 - tolerance) * baseline
     drop-like (failed, malformed_drops, and any "dropped..." key)
         fail when current > baseline
     simulated-latency and state-size (keys ending _ms/_us, "latency...",
     route_hops, viper_header_bytes, sirpent_state_ports)
         fail when current > (1 + tolerance) * baseline

   Wall-clock, speedup and ns/packet fields are machine-dependent and
   deliberately not on the lists — they are never compared against the
   baseline. The one exception is opt-in: [--min-speedup X] additionally
   requires the CURRENT file's top-level "speedup_vs_serial" to be at
   least X. Baselines generated on small machines carry whatever speedup
   they measured; the gate judges only the machine CI actually ran on
   (E20 uses X = 1.0: parallel must never lose to serial there).

   [--throughput KEY] (repeatable) opts one more key into the
   throughput-like check for this invocation only. E24's full-scale gate
   uses it for the per-arm wall-clock "pps", on the one job that runs the
   full depth; no other gate compares wall clock against a baseline.

   A structural mismatch (missing baseline key, array length change)
   also fails: it means the experiment grid or schema changed and the
   baseline must be regenerated alongside. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

(* ---- minimal recursive-descent JSON parser ---- *)

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape");
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          (* baselines are ASCII; render exotic code points literally *)
          let code = int_of_string ("0x" ^ hex) in
          if code < 128 then Buffer.add_char buf (Char.chr code)
          else Buffer.add_string buf (Printf.sprintf "\\u%s" hex)
        | _ -> fail "bad escape");
        go ()
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or } in object"
        in
        fields []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ] in array"
        in
        items []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ---- comparison ---- *)

let extra_throughput_keys = ref []

let is_throughput_key k =
  List.mem k [ "delivered"; "completed"; "goodput" ]
  || List.mem k !extra_throughput_keys

let is_drop_key k =
  k = "failed" || k = "malformed_drops"
  || (String.length k >= 7 && String.sub k 0 7 = "dropped")

let has_suffix k suf =
  let lk = String.length k and ls = String.length suf in
  lk >= ls && String.sub k (lk - ls) ls = suf

let has_prefix k pre =
  let lk = String.length k and lp = String.length pre in
  lk >= lp && String.sub k 0 lp = pre

(* Simulated (virtual-time) latencies and per-packet state sizes: lower is
   better, and the values are deterministic, so growth is a real
   behavioral regression. Host wall-clock keys (seconds_per_run,
   ns_per_packet, wall_clock_s, ...) deliberately match none of these. *)
let is_lower_better_key k =
  has_suffix k "_ms" || has_suffix k "_us" || has_prefix k "latency"
  || List.mem k
       [
         "route_hops"; "viper_header_bytes"; "sirpent_state_ports";
         "cache_entries"; "cache_entries_10q";
       ]

type verdict = { mutable checked : int; mutable failures : string list }

let fail_check v fmt = Printf.ksprintf (fun m -> v.failures <- m :: v.failures) fmt

let check_leaf v ~tolerance ~path ~key base cur =
  if is_throughput_key key then begin
    v.checked <- v.checked + 1;
    if cur < (1.0 -. tolerance) *. base then
      fail_check v "%s: throughput regression: %g -> %g (> %.0f%% drop)" path base
        cur (tolerance *. 100.0)
  end
  else if is_drop_key key then begin
    v.checked <- v.checked + 1;
    if cur > base then fail_check v "%s: drop count increased: %g -> %g" path base cur
  end
  else if is_lower_better_key key then begin
    v.checked <- v.checked + 1;
    if cur > ((1.0 +. tolerance) *. base) +. 1e-9 then
      fail_check v "%s: regression (lower is better): %g -> %g (> %.0f%% growth)" path
        base cur (tolerance *. 100.0)
  end

let rec compare_json v ~tolerance ~path ~key base cur =
  match (base, cur) with
  | Obj bs, Obj cs ->
    List.iter
      (fun (k, bval) ->
        let path = path ^ "." ^ k in
        match List.assoc_opt k cs with
        | Some cval -> compare_json v ~tolerance ~path ~key:k bval cval
        | None ->
          fail_check v "%s: key present in baseline but missing in current (regenerate baselines?)"
            path)
      bs
  | Arr bs, Arr cs ->
    if List.length bs <> List.length cs then
      fail_check v "%s: array length changed %d -> %d (grid changed; regenerate baselines?)"
        path (List.length bs) (List.length cs)
    else
      List.iteri
        (fun i (b, c) ->
          compare_json v ~tolerance ~path:(Printf.sprintf "%s[%d]" path i) ~key b c)
        (List.combine bs cs)
  | Num b, Num c -> check_leaf v ~tolerance ~path ~key b c
  | _ -> ()

let read_file file =
  let ic = try open_in file with Sys_error e -> failwith e in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* [--min-speedup]: the current run's top-level speedup_vs_serial must
   reach the floor. Checked on CURRENT only — wall clock is
   machine-dependent, so the committed baseline's value is irrelevant. *)
(* [--min-ratio KEY X] (repeatable): the current run's top-level KEY must
   be a number of at least X. Like --min-speedup, checked on CURRENT only
   — these are floors on machine-local measurements (speedups, hit
   ratios), not baseline comparisons. *)
let check_min_ratio v ~key ~floor cur =
  v.checked <- v.checked + 1;
  match cur with
  | Obj fields -> (
    match List.assoc_opt key fields with
    | Some (Num s) ->
      if s < floor then fail_check v "$.%s: %g below required minimum %g" key s floor
    | Some _ -> fail_check v "$.%s: not a number" key
    | None ->
      fail_check v "$.%s: missing from current file (required by --min-ratio)" key)
  | _ -> fail_check v "--min-ratio: current file is not a JSON object"

(* [--max-ratio KEY X] (repeatable): the dual ceiling, for lower-is-better
   ratio metrics (overhead ratios, null-message ratios). Also checked on
   CURRENT only. *)
let check_max_ratio v ~key ~ceiling cur =
  v.checked <- v.checked + 1;
  match cur with
  | Obj fields -> (
    match List.assoc_opt key fields with
    | Some (Num s) ->
      if s > ceiling then
        fail_check v "$.%s: %g above required maximum %g" key s ceiling
    | Some _ -> fail_check v "$.%s: not a number" key
    | None ->
      fail_check v "$.%s: missing from current file (required by --max-ratio)" key)
  | _ -> fail_check v "--max-ratio: current file is not a JSON object"

let check_min_speedup v ~floor cur = check_min_ratio v ~key:"speedup_vs_serial" ~floor cur

let () =
  let tolerance = ref 0.25 in
  let min_speedup = ref None in
  let min_ratios = ref [] in
  let max_ratios = ref [] in
  let files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--tolerance" :: x :: rest ->
      (match float_of_string_opt x with
      | Some f when f >= 0.0 && f < 1.0 -> tolerance := f
      | _ ->
        prerr_endline "--tolerance expects a float in [0, 1)";
        exit 2);
      parse_args rest
    | "--min-speedup" :: x :: rest ->
      (match float_of_string_opt x with
      | Some f when f >= 0.0 -> min_speedup := Some f
      | _ ->
        prerr_endline "--min-speedup expects a non-negative float";
        exit 2);
      parse_args rest
    | "--min-ratio" :: key :: x :: rest ->
      (match float_of_string_opt x with
      | Some f -> min_ratios := (key, f) :: !min_ratios
      | None ->
        prerr_endline "--min-ratio expects KEY FLOAT";
        exit 2);
      parse_args rest
    | "--max-ratio" :: key :: x :: rest ->
      (match float_of_string_opt x with
      | Some f -> max_ratios := (key, f) :: !max_ratios
      | None ->
        prerr_endline "--max-ratio expects KEY FLOAT";
        exit 2);
      parse_args rest
    | "--throughput" :: key :: rest ->
      extra_throughput_keys := key :: !extra_throughput_keys;
      parse_args rest
    | a :: rest ->
      files := a :: !files;
      parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  match List.rev !files with
  | [ baseline_file; current_file ] ->
    let load name file =
      try parse (read_file file)
      with
      | Parse_error msg ->
        Printf.eprintf "%s: %s: %s\n" name file msg;
        exit 2
      | Failure msg ->
        Printf.eprintf "%s: %s: %s\n" name file msg;
        exit 2
    in
    let base = load "baseline" baseline_file in
    let cur = load "current" current_file in
    let v = { checked = 0; failures = [] } in
    compare_json v ~tolerance:!tolerance ~path:"$" ~key:"" base cur;
    (match !min_speedup with
    | Some floor -> check_min_speedup v ~floor cur
    | None -> ());
    List.iter (fun (key, floor) -> check_min_ratio v ~key ~floor cur) (List.rev !min_ratios);
    List.iter
      (fun (key, ceiling) -> check_max_ratio v ~key ~ceiling cur)
      (List.rev !max_ratios);
    if v.failures = [] then begin
      Printf.printf "check_regression: %s vs %s: %d guarded values ok (tolerance %.0f%%)\n"
        baseline_file current_file v.checked (!tolerance *. 100.0);
      if v.checked = 0 then begin
        Printf.eprintf "check_regression: nothing to guard — wrong file?\n";
        exit 1
      end
    end
    else begin
      Printf.eprintf "check_regression: %s vs %s: %d failure(s):\n" baseline_file
        current_file (List.length v.failures);
      List.iter (fun m -> Printf.eprintf "  %s\n" m) (List.rev v.failures);
      exit 1
    end
  | _ ->
    prerr_endline
      "usage: check_regression [--tolerance 0.25] [--min-speedup X] [--min-ratio KEY X]... [--max-ratio KEY X]... [--throughput KEY]... BASELINE CURRENT";
    exit 2

(* Benchmark entry point: one workload, one seed, one run.

   --trace 0 prints the end-to-end metrics; --trace 1 prints the
   per-layer metrics and writes the run's spans as trace-event JSON
   under perfbench/out/. The last line of standard output is the result
   object; the exit code is 1 if a correctness check failed. *)

let workloads =
  [
    ("fwd-saturate", (Fwd.untraced, Fwd.traced));
    ("vmtp-campus", (Campus.untraced, Campus.traced));
    ("dir-zipf", (Dirzipf.untraced, Dirzipf.traced));
    ("region-cluster", (Region.untraced, Region.traced));
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and tiny = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured wall time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--tiny", Arg.Set tiny, " toy input sizes (self-test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline
      ("unknown workload " ^ !workload ^ "; expected one of "
      ^ String.concat ", " (List.map fst workloads));
    exit 2
  | Some (untraced, traced) ->
    let cfg =
      { Measure.seed = !seed; seconds = !seconds; trace = !trace = 1; tiny = !tiny }
    in
    Printf.printf "workload %s  seed %d  seconds %g  trace %d\n%!" !workload !seed
      !seconds !trace;
    let result, table =
      if cfg.Measure.trace then begin
        let r, keep = traced cfg in
        let dir = Filename.concat "perfbench" "out" in
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let path = Filename.concat dir ("trace-" ^ !workload ^ ".json") in
        Spans.write_trace_events ~path ~workload:!workload ~keep;
        Printf.printf "\n%-22s %9s %12s %12s\n" "span" "count" "total ms" "self ms";
        List.iter
          (fun (name, a) ->
            Printf.printf "%-22s %9d %12.3f %12.3f\n" name a.Spans.count
              (float_of_int a.Spans.total_ns /. 1e6)
              (float_of_int a.Spans.self_ns /. 1e6))
          (Spans.aggregate ());
        Printf.printf "spans written to %s\n" path;
        (r, Catalog.per_layer)
      end
      else (untraced cfg, Catalog.end_to_end)
    in
    let result =
      { result with Measure.metrics = Catalog.complete table result.Measure.metrics }
    in
    Measure.print_result result;
    exit (if result.Measure.correct then 0 else 1)

(* The repository benchmark.  Run through perfbench/run.py, which builds
   this program and the etx daemon from source:

     etxbench --workload NAME --seed N --seconds S --trace 0|1 --etx PATH
     etxbench --capture-reference FILE

   The last line of standard output is one JSON object: whether every
   output was correct, how many units of work were checked and failed,
   and the metrics, the end-to-end set with --trace 0 and the per-layer
   set with --trace 1.  The exit code is non-zero on any mismatch. *)

open Common

let end_to_end =
  [
    ("setup_s", "s"); ("wall_cal_s", "s"); ("sat_cal_rps", "1/s"); ("rss_mb", "MB");
  ]

(* Latency and the uncalibrated times are reported here, not gated: on
   a shared 2-vCPU host their run-to-run spread is about as wide as the
   largest bound a metric may have, or wider (see perfbench/README.md). *)
let per_layer =
  [
    ("p50_ms.low", "ms"); ("p50_ms.high", "ms"); ("p99_ms.low", "ms"); ("p99_ms.high", "ms");
    ("wall_raw_s", "s"); ("sat_raw_rps", "1/s"); ("host.kernel_ms", "ms");
    ("experiments.fig7_s", "s"); ("experiments.table2_s", "s"); ("experiments.fig8_s", "s");
    ("experiments.resilience_s", "s"); ("pool.busy_frac", "ratio"); ("pool.tail_idle_s", "s");
    ("engine.create_s", "s"); ("engine.run_s", "s"); ("engine.us_per_frame.4x4", "us");
    ("engine.us_per_frame.8x8", "us"); ("engine.sims", "count"); ("engine.frames", "count");
    ("engine.recomputations", "count"); ("engine.acts", "count"); ("engine.hops", "count");
    ("engine.retransmissions", "count"); ("controller.full_recomputes", "count");
    ("controller.incremental_recomputes", "count"); ("router.compute_us.8x8", "us");
    ("router.incremental_us.8x8", "us"); ("maximin.compute_us.8x8", "us");
    ("floyd_warshall.run_us.8x8", "us"); ("battery.draw_tick_ns", "ns"); ("aes.encrypt_block_ns", "ns");
    ("router.share_est", "ratio"); ("request.of_line_us", "us"); ("handlers.fingerprint_us", "us");
    ("json.to_string_us", "us"); ("server.handle_batch_hit_us", "us");
    ("cluster.handle_batch_hit_us", "us"); ("cluster.overhead_us.p50", "us"); ("cache.hit_ratio", "ratio");
    ("store.hit_ratio", "ratio"); ("server.elapsed_ms.hit.p50", "ms"); ("server.elapsed_ms.store.p50", "ms");
    ("server.elapsed_ms.miss.p50", "ms"); ("store.find_us", "us"); ("store.add_us", "us");
    ("server.requests", "count"); ("server.shed", "count"); ("cluster.failovers", "count");
    ("cluster.degraded", "count"); ("store.writes", "count"); ("loadgen.sent", "count");
    ("loadgen.lag_p99_ms", "ms"); ("loadgen.backlog_max", "count"); ("trace.overhead_frac", "ratio");
    ("failed_frac", "ratio");
  ]

let usage () =
  prerr_endline
    "usage: etxbench --workload paper-sweep|cluster-hot|cluster-churn --seed N --seconds S --trace 0|1 --etx PATH\n\
    \       etxbench --capture-reference FILE";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) and capture = ref "" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := (match int_of_string_opt v with Some n -> n | None -> usage ()); parse rest
    | "--seconds" :: v :: rest -> seconds := (match int_of_string_opt v with Some n -> n | None -> usage ()); parse rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := int_of_string v; parse rest
    | "--etx" :: v :: rest -> Clusterwl.etx_exe := v; parse rest
    | "--capture-reference" :: v :: rest -> capture := v; parse rest
    | _ -> usage ()
  in
  if Array.to_list Sys.argv = [ Sys.argv.(0); "--kernel" ] then (Printf.printf "%.9f\n" (kernel_pair_s ()); exit 0);
  parse (List.tl (Array.to_list Sys.argv));
  if !capture <> "" then (Sweep.capture !capture; exit 0);
  if !seed < 0 || !seconds < 1 || !trace < 0 then usage ();
  let traced = !trace = 1 in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  mkdir_p run_root;
  Tracer.set_enabled traced;
  if traced then Layers.run ();
  let run () =
    match !workload with
    | "paper-sweep" -> Sweep.run ~seconds:!seconds ~traced
    | "cluster-hot" -> Clusterwl.run (Clusterwl.hot ~seed:!seed) ~seconds:!seconds ~traced
    | "cluster-churn" -> Clusterwl.run (Clusterwl.churn ~seed:!seed) ~seconds:!seconds ~traced
    | _ -> usage ()
  in
  (match run () with
   | () -> ()
   | exception e ->
     Printf.eprintf "etxbench: %s failed: %s\n%!" !workload (Printexc.to_string e);
     exit 1);
  Tracer.set_enabled false;
  (* the uncalibrated times, which only the traced run reports *)
  List.iter
    (fun name -> Option.iter (Printf.eprintf "etxbench: %s %.6g\n" name) (Hashtbl.find_opt values name))
    [ "wall_raw_s"; "sat_raw_rps"; "host.kernel_ms" ];
  set "failed_frac" (float_of_int !failed /. float_of_int (max 1 !attempted));
  if traced then begin
    let spans = Tracer.all () in
    Tracer.write
      (Filename.concat run_root (Printf.sprintf "spans-%s-seed%d.jsonl" !workload !seed))
      spans;
    let by_name = Tracer.self_by_name spans in
    Hashtbl.fold (fun name self acc -> (self, name) :: acc) by_name []
    |> List.sort compare |> List.rev
    |> List.iter (fun (self, name) -> Printf.eprintf "self %-28s %10.4f s\n" name self)
  end;
  List.iter (fun p -> Printf.eprintf "etxbench: %s\n" p) (List.rev !problems);
  print_endline (result_line (if traced then per_layer else end_to_end));
  exit (if !failed = 0 then 0 else 1)

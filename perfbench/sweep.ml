(* paper-sweep: the paper's Fig 7, Table 2, Fig 8 (meshes 4..8, seeds
   1..5) and the 5x5 resilience sweep, in process, through one
   persistent 2-domain pool with default engine flags.

   Each repetition runs the sweep twice over the same cells:
   - through the library's experiment functions, whose rows must match
     the reference captured from the parent commit bit for bit (wall_cal_s);
   - as a cell pass, the same configurations fanned over the same pool
     with the benchmark's own timer around Engine.create and Engine.run
     (per-simulation latency, throughput, pool occupancy and the engine
     counts).  Every cell's metrics must match the reference digest.

   The grid is the paper's, so this workload's inputs do not depend on
   the seed. *)

module Experiments = Etextile.Experiments
module Calibration = Etextile.Calibration
module Engine = Etx_etsim.Engine
module Metrics = Etx_etsim.Metrics
module Pool = Etx_util.Pool
module Obs = Etx_obs.Obs
open Common

let sizes = [ 4; 5; 6; 7; 8 ]
let seeds = Calibration.default_seeds
let domains = 2

type cell = { label : string; mesh : int; config : Etx_etsim.Config.t }

(* The sweep's configurations in the experiment functions' own order. *)
let build_cells () =
  let ear = Calibration.ear () and sdr = Calibration.sdr () in
  let per_seed label mesh make =
    List.map (fun seed -> { label = Printf.sprintf "%s/seed%d" label seed; mesh; config = make seed }) seeds
  in
  let fig7 =
    List.concat_map
      (fun mesh_size ->
        List.concat_map
          (fun (name, policy) ->
            per_seed (Printf.sprintf "fig7/%dx%d/%s" mesh_size mesh_size name) mesh_size
              (fun seed -> Calibration.config ~policy ~mesh_size ~seed ()))
          [ ("ear", ear); ("sdr", sdr) ])
      sizes
  in
  let table2 =
    List.concat_map
      (fun mesh_size ->
        per_seed (Printf.sprintf "table2/%dx%d" mesh_size mesh_size) mesh_size (fun seed ->
            Calibration.config ~policy:ear ~battery_kind:Etx_battery.Battery.Ideal ~mesh_size
              ~seed ()))
      sizes
  in
  let fig8 =
    List.concat_map
      (fun count ->
        List.concat_map
          (fun mesh_size ->
            per_seed (Printf.sprintf "fig8/%dx%d/c%d" mesh_size mesh_size count) mesh_size
              (fun seed ->
                Calibration.config ~policy:ear
                  ~controllers:(Etx_etsim.Config.Battery_controllers { count })
                  ~mesh_size ~seed ()))
          sizes)
      [ 1; 2; 4; 7; 10 ]
  in
  let resilience =
    let mesh_size = 5 in
    let axis name rates spec =
      List.concat_map
        (fun rate ->
          List.concat_map
            (fun (pname, policy) ->
              per_seed (Printf.sprintf "resilience/%s/%h/%s" name rate pname) mesh_size
                (fun seed ->
                  let fault = if rate = 0. then None else Some (spec ~seed ~rate) in
                  Calibration.config ~policy ?fault ~mesh_size ~seed ()))
            [ ("ear", ear); ("sdr", sdr) ])
        rates
    in
    axis "bit-error" [ 0.; 1e-4; 3e-4; 1e-3 ] (fun ~seed ~rate ->
        Etx_fault.Spec.make ~seed:(1009 + seed) ~bit_error_rate:rate ())
    @ axis "wear-out" [ 0.; 3e-6; 1e-5; 3e-5 ] (fun ~seed ~rate ->
          Etx_fault.Spec.make ~seed:(1009 + seed) ~link_wearout_rate:rate ())
  in
  Array.of_list (fig7 @ table2 @ fig8 @ resilience)

(* - rows, rendered exactly (%h) for the bit-identity check - *)

let sweep_rows ~pool =
  let h = Printf.sprintf "%h" in
  let fig7 = Tracer.with_span "experiments.fig7" (fun () -> Experiments.fig7 ~pool ()) in
  let table2 = Tracer.with_span "experiments.table2" (fun () -> Experiments.table2 ~domains ()) in
  let fig8 = Tracer.with_span "experiments.fig8" (fun () -> Experiments.fig8 ~domains ()) in
  let resilience =
    Tracer.with_span "experiments.resilience" (fun () ->
        Experiments.resilience ~pool ())
  in
  List.map
    (fun (r : Experiments.fig7_row) ->
      String.concat " "
        [ "fig7"; string_of_int r.mesh_size; h r.ear_jobs; h r.sdr_jobs; h r.gain; h r.ear_overhead ])
    fig7
  @ List.map
      (fun (r : Experiments.table2_row) ->
        String.concat " " [ "table2"; string_of_int r.mesh_size; h r.ear_jobs; h r.j_star; h r.ratio ])
      table2
  @ List.map
      (fun (r : Experiments.fig8_row) ->
        String.concat " " [ "fig8"; string_of_int r.mesh_size; string_of_int r.controllers; h r.jobs ])
      fig8
  @ List.map
      (fun (r : Experiments.resilience_row) ->
        String.concat " "
          [
            "resilience"; r.axis; h r.rate; h r.ear_jobs; h r.sdr_jobs; h r.r_gain; h r.retransmissions;
            h r.packets_dropped; h r.wearouts;
          ])
      resilience

let digest m = Digest.to_hex (Digest.string (Etx_util.Json.to_string (Metrics.to_json m)))

(* - the cell pass - *)

type timing = { start_s : float; created_s : float; end_s : float; domain : int }

let cell_pass ~pool cells =
  let timings = Array.make (Array.length cells) { start_s = 0.; created_s = 0.; end_s = 0.; domain = 0 } in
  let ctx = Tracer.context () in
  let t0 = now () in
  let metrics =
    Pool.run pool
      (fun i ->
        Tracer.in_context ctx (fun () ->
            let start_s = now () in
            let engine = Tracer.with_span "engine.create" (fun () -> Engine.create cells.(i).config) in
            let created_s = now () in
            let m = Tracer.with_span "engine.run" (fun () -> Engine.run engine) in
            timings.(i) <- { start_s; created_s; end_s = now (); domain = (Domain.self () :> int) };
            m))
      (List.init (Array.length cells) Fun.id)
  in
  (Array.of_list metrics, timings, now () -. t0)

(* - reference capture and comparison - *)

let reference_path = "perfbench/reference/paper_sweep.txt"

let reference_lines ~rows ~cells ~metrics =
  rows @ Array.to_list (Array.mapi (fun i m -> Printf.sprintf "cell %s %s" cells.(i).label (digest m)) metrics)

let capture path =
  Pool.with_pool ~domains (fun pool ->
      let cells = build_cells () in
      let rows = sweep_rows ~pool in
      let metrics, _, _ = cell_pass ~pool cells in
      let oc = open_out path in
      List.iter (fun l -> output_string oc (l ^ "\n")) (reference_lines ~rows ~cells ~metrics);
      close_out oc)

let load_reference () =
  let ic = open_in reference_path in
  let rec loop acc = match input_line ic with l -> loop (l :: acc) | exception End_of_file -> List.rev acc in
  let lines = loop [] in
  close_in ic;
  let rows, cells = List.partition (fun l -> not (String.starts_with ~prefix:"cell " l)) lines in
  (Array.of_list rows, Array.of_list cells)

(* - the workload - *)

let recompute_counts () =
  List.fold_left
    (fun (full, incr) (s : Obs.sample) ->
      match (s.name, s.value, List.assoc_opt "mode" s.labels) with
      | "etx_engine_recompute_total", Obs.Counter_v n, Some "full" -> (full + n, incr)
      | "etx_engine_recompute_total", Obs.Counter_v n, Some "incremental" -> (full, incr + n)
      | _ -> (full, incr))
    (0, 0) (Obs.snapshot ())

let run ~seconds ~traced =
  let ref_rows, ref_cells = load_reference () in
  (* set-up: spawn the pool and build every cell's configuration; done
     several times, the last pool is kept *)
  let setups = 31 in
  let pool = ref None in
  let cells = ref [||] in
  let setup_times =
    List.init setups (fun i ->
        let (p, c), dt = time (fun () -> (Pool.create ~domains (), build_cells ())) in
        if i < setups - 1 then Pool.shutdown p else (pool := Some p; cells := c);
        dt)
  in
  let pool = Option.get !pool and cells = !cells in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let n = Array.length cells in
  check (Array.length ref_cells = n) "cell count %d vs reference %d" n (Array.length ref_cells);
  let reps = ref [] and share = ref None in
  let deadline = now () +. float_of_int seconds in
  while List.length !reps < 2 || now () < deadline do
    (* a traced run alternates traced and plain repetitions, so the
       tracing overhead is measured in the same process *)
    let tracing = traced && List.length !reps mod 2 = 1 in
    Tracer.set_enabled tracing;
    let kernel = kernel_s () in
    let rows, wall = time (fun () -> Tracer.with_span ~root:true "sweep" (fun () -> sweep_rows ~pool)) in
    if tracing then (Obs.reset (); Obs.arm ());
    let metrics, timings, pass_wall =
      Tracer.with_span ~root:true "pool.run" (fun () -> cell_pass ~pool cells)
    in
    let full, incremental = recompute_counts () in
    Obs.disarm ();
    Tracer.set_enabled false;
    List.iteri
      (fun i row ->
        check (i < Array.length ref_rows && ref_rows.(i) = row) "row %d differs: %s" i row)
      rows;
    check (List.length rows = Array.length ref_rows) "row count %d" (List.length rows);
    Array.iteri
      (fun i m ->
        let line = Printf.sprintf "cell %s %s" cells.(i).label (digest m) in
        check (i < Array.length ref_cells && ref_cells.(i) = line) "%s differs from reference" line)
      metrics;
    (* the paper's anchors: EAR 4x4 seed 1 completes 61 jobs, SDR 9 *)
    check (metrics.(0).jobs_completed = 61) "EAR 4x4 seed 1: %d jobs" metrics.(0).jobs_completed;
    check (metrics.(5).jobs_completed = 9) "SDR 4x4 seed 1: %d jobs" metrics.(5).jobs_completed;
    (* per-simulation latency: light (4x4, 5x5) and heavy (6x6..8x8) cells *)
    let latency ~light q =
      Array.to_list timings
      |> List.filteri (fun i _ -> (cells.(i).mesh <= 5) = light)
      |> List.map (fun t -> (t.end_s -. t.start_s) *. 1000.)
      |> quantile q
    in
    let pass_end = Array.fold_left (fun acc t -> Float.max acc t.end_s) 0. timings in
    let last_by_domain = Hashtbl.create 4 in
    Array.iter
      (fun t ->
        let prev = Option.value (Hashtbl.find_opt last_by_domain t.domain) ~default:0. in
        Hashtbl.replace last_by_domain t.domain (Float.max prev t.end_s))
      timings;
    let sum_by f = Array.fold_left (fun acc t -> acc +. f t) 0. timings in
    let count f = float_of_int (Array.fold_left (fun acc m -> acc + f m) 0 metrics) in
    let pass =
      [
        ("wall", pass_wall);
        ("kernel", kernel);
        ("p50_ms.low", latency ~light:true 0.5);
        ("p99_ms.low", latency ~light:true 0.99);
        ("p50_ms.high", latency ~light:false 0.5);
        ("p99_ms.high", latency ~light:false 0.99);
        ("busy", sum_by (fun t -> t.end_s -. t.start_s));
        ("engine.create_s", sum_by (fun t -> t.created_s -. t.start_s));
        ("engine.run_s", sum_by (fun t -> t.end_s -. t.created_s));
        ("pool.tail_idle_s", Hashtbl.fold (fun _ last acc -> acc +. (pass_end -. last)) last_by_domain 0.);
        ("engine.sims", float_of_int n);
        ("engine.frames", count (fun (m : Metrics.t) -> m.frames));
        ("engine.recomputations", count (fun (m : Metrics.t) -> m.recomputations));
        ("engine.acts", count (fun (m : Metrics.t) -> m.acts_total));
        ("engine.hops", count (fun (m : Metrics.t) -> m.hops_total));
        ("engine.retransmissions", count (fun (m : Metrics.t) -> m.retransmissions));
        ("controller.full_recomputes", float_of_int full);
        ("controller.incremental_recomputes", float_of_int incremental);
      ]
    in
    if tracing then
      share :=
        Some
          ( List.assoc "engine.run_s" pass,
            Array.to_list (Array.mapi (fun i (m : Metrics.t) -> (cells.(i).mesh, m.recomputations)) metrics) );
    reps := (tracing, wall, pass) :: !reps
  done;
  Option.iter (fun (run_s, by_mesh) -> Layers.router_share ~run_s by_mesh) !share;
  let over select key = List.filter_map (fun (t, w, p) -> if t = select then Some (key w p) else None) !reps in
  let field name _ p = List.assoc name p in
  set "setup_s" (median setup_times);
  let cal w p = calibrated ~kernel_s:(List.assoc "kernel" p) w in
  set "wall_cal_s" (lower_quartile (over false cal));
  set "sat_cal_rps" (float_of_int n /. lower_quartile (over false (fun _ p -> cal (List.assoc "wall" p) p)));
  set "wall_raw_s" (lower_quartile (over false (fun w _ -> w)));
  set "sat_raw_rps" (float_of_int n /. lower_quartile (over false (field "wall")));
  set "host.kernel_ms" (1000. *. median (over false (field "kernel")));
  List.iter
    (fun name -> set name (lower_quartile (over false (field name))))
    [ "p50_ms.low"; "p99_ms.low"; "p50_ms.high"; "p99_ms.high"];
  set "rss_mb" (vm_hwm_mb (Unix.getpid ()));
  if traced then begin
    let spans = Tracer.all () in
    List.iter
      (fun name ->
        let ds = List.filter_map (fun (s : Tracer.span) -> if s.name = "experiments." ^ name then Some (Tracer.duration s) else None) spans in
        set (Printf.sprintf "experiments.%s_s" name) (median ds))
      [ "fig7"; "table2"; "fig8"; "resilience" ];
    List.iter
      (fun name -> set name (median (over true (field name))))
      [
        "engine.create_s"; "engine.run_s"; "pool.tail_idle_s"; "engine.sims"; "engine.frames";
        "engine.recomputations"; "engine.acts"; "engine.hops"; "engine.retransmissions";
        "controller.full_recomputes"; "controller.incremental_recomputes";
      ];
    set "pool.busy_frac"
      (median (over true (fun _ p -> List.assoc "busy" p /. (float_of_int domains *. List.assoc "wall" p))));
    let total w p = w +. List.assoc "wall" p in
    set "trace.overhead_frac" ((median (over true total) /. median (over false total)) -. 1.)
  end

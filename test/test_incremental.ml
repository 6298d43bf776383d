(* Delta-driven routing repair (Router.Delta / compute_incremental),
   the engine's only recompute path.  Everything here guards one
   contract: repair yields the same bits as the full kernels - same
   routing tables, same metrics, same checkpoints. *)

module Router = Etx_routing.Router
module Maximin = Etx_routing.Maximin
module Mapping = Etx_routing.Mapping
module Routing_table = Etx_routing.Routing_table
module Weight = Etx_routing.Weight
module Policy = Etx_routing.Policy
module Topology = Etx_graph.Topology
module Battery = Etx_battery.Battery
module Engine = Etx_etsim.Engine
module Config = Etx_etsim.Config
module Metrics = Etx_etsim.Metrics
module Calibration = Etextile.Calibration
module Prng = Etx_util.Prng

let copy_snapshot (s : Router.snapshot) =
  {
    Router.alive = Array.copy s.Router.alive;
    battery_level = Array.copy s.Router.battery_level;
    levels = s.Router.levels;
    locked_ports = s.Router.locked_ports;
    failed_links = s.Router.failed_links;
  }

(* - Delta.diff: the controller's exported change-set - *)

let test_delta_empty () =
  let previous = Router.full_snapshot ~node_count:9 ~levels:8 in
  let current = copy_snapshot previous in
  let d = Router.Delta.diff ~previous current in
  Alcotest.(check bool) "is_empty" true (Router.Delta.is_empty d);
  Alcotest.(check bool) "not full" false d.Router.Delta.full;
  Alcotest.(check (list int)) "no dirty levels" [] d.Router.Delta.dirty_levels;
  (* steady state allocates nothing: the preallocated constant comes back *)
  Alcotest.(check bool) "preallocated constant" true (d == Router.Delta.empty)

let test_delta_levels () =
  (* the change-set is exactly the moved nodes, in ascending id order *)
  let previous = Router.full_snapshot ~node_count:9 ~levels:8 in
  let current = copy_snapshot previous in
  current.Router.battery_level.(5) <- 3;
  current.Router.battery_level.(2) <- 6;
  current.Router.battery_level.(8) <- 0;
  let d = Router.Delta.diff ~previous current in
  Alcotest.(check (list int)) "dirty ids ascending" [ 2; 5; 8 ]
    d.Router.Delta.dirty_levels;
  Alcotest.(check bool) "levels only" false
    (d.Router.Delta.full || d.Router.Delta.alive_changed || d.Router.Delta.locks_changed
   || d.Router.Delta.links_changed);
  Alcotest.(check bool) "not empty" false (Router.Delta.is_empty d)

let test_delta_structural_flags () =
  let previous = Router.full_snapshot ~node_count:9 ~levels:8 in
  let killed = copy_snapshot previous in
  killed.Router.alive.(4) <- false;
  let d = Router.Delta.diff ~previous killed in
  Alcotest.(check bool) "alive_changed" true d.Router.Delta.alive_changed;
  Alcotest.(check (list int)) "no dirty levels" [] d.Router.Delta.dirty_levels;
  let locked = copy_snapshot previous in
  locked.Router.locked_ports <- [ (0, 1) ];
  Alcotest.(check bool) "locks_changed" true
    (Router.Delta.diff ~previous locked).Router.Delta.locks_changed;
  let cut = copy_snapshot previous in
  cut.Router.failed_links <- [ (1, 2) ];
  Alcotest.(check bool) "links_changed" true
    (Router.Delta.diff ~previous cut).Router.Delta.links_changed

let test_delta_full_on_shape_change () =
  (* arity or quantization changes leave nothing reusable *)
  let previous = Router.full_snapshot ~node_count:9 ~levels:8 in
  let grown = Router.full_snapshot ~node_count:16 ~levels:8 in
  Alcotest.(check bool) "node count" true
    (Router.Delta.diff ~previous grown).Router.Delta.full;
  let requantized = Router.full_snapshot ~node_count:9 ~levels:4 in
  Alcotest.(check bool) "levels" true
    (Router.Delta.diff ~previous requantized).Router.Delta.full

let test_delta_identity_short_circuit () =
  (* sharing the same list frame to frame (what the engine does) must
     read as unchanged without a structural walk *)
  let previous = Router.full_snapshot ~node_count:9 ~levels:8 in
  previous.Router.locked_ports <- [ (0, 1); (3, 4) ];
  previous.Router.failed_links <- [ (5, 8) ];
  let current = copy_snapshot previous in
  let d = Router.Delta.diff ~previous current in
  Alcotest.(check bool) "shared lists are unchanged" true (Router.Delta.is_empty d)

(* - repair classes: each one equals the full recompute - *)

let mesh_parts size =
  let t = Topology.square_mesh ~size () in
  (t.Topology.graph, Mapping.checkerboard t)

let test_repair_classes_ear () =
  let graph, mapping = mesh_parts 4 in
  let weight = Weight.Exponential { q = 2. } in
  let workspace = Router.create_workspace () in
  let snapshot = Router.full_snapshot ~node_count:16 ~levels:8 in
  ignore
    (Router.compute ~workspace ~graph ~mapping ~module_count:3 ~weight snapshot);
  let previous = ref (copy_snapshot snapshot) in
  let step name mutate =
    mutate snapshot;
    let delta = Router.Delta.diff ~previous:!previous snapshot in
    let got =
      Router.compute_incremental ~workspace ~graph ~mapping ~module_count:3 ~weight
        ~delta snapshot
    in
    previous := copy_snapshot snapshot;
    Alcotest.(check bool) name true
      (Routing_table.equal got
         (Router.compute ~graph ~mapping ~module_count:3 ~weight snapshot))
  in
  step "empty delta" (fun _ -> ());
  step "lock-only" (fun s -> s.Router.locked_ports <- [ (0, 1) ]);
  step "lock released" (fun s -> s.Router.locked_ports <- []);
  step "level-only, under threshold" (fun s -> s.Router.battery_level.(6) <- 2);
  step "level-only, past threshold" (fun s ->
      for i = 0 to 15 do
        s.Router.battery_level.(i) <- (i * 5) mod 8
      done);
  step "death" (fun s -> s.Router.alive.(9) <- false);
  step "link failure" (fun s -> s.Router.failed_links <- [ (0, 4) ])

(* The level-only class is what the controller runs almost every frame
   under EAR (92% of the paper sweep's recomputes), so it must not
   allocate beyond the [Forward] entries it stores: 3 words each, 128 of
   the 192 entries on the 8x8 checkerboard.  The bound is 4 words per
   table entry; the count is deterministic, and boxing one float per
   distance or building one tuple per candidate in phase three would
   cost tens of thousands of words. *)
let test_level_patch_allocation () =
  let graph, mapping = mesh_parts 8 in
  let weight = Weight.Exponential { q = 2. } in
  let workspace = Router.create_workspace () in
  let snapshot = Router.full_snapshot ~node_count:64 ~levels:8 in
  ignore (Router.compute ~workspace ~graph ~mapping ~module_count:3 ~weight snapshot);
  let delta = Router.Delta.make ~dirty_levels:[ 27 ] () in
  let recompute () =
    snapshot.Router.battery_level.(27) <- 13 - snapshot.Router.battery_level.(27);
    ignore
      (Router.compute_incremental ~workspace ~graph ~mapping ~module_count:3 ~weight
         ~delta snapshot)
  in
  recompute ();
  recompute ();
  let runs = 10 in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    recompute ()
  done;
  let per_run = (Gc.minor_words () -. before) /. float_of_int runs in
  let bound = 4. *. float_of_int (64 * 3) in
  if per_run > bound then
    Alcotest.failf "level-only EAR recompute allocates %.0f minor words (bound %.0f)"
      per_run bound

let test_repair_classes_maximin () =
  let graph, mapping = mesh_parts 4 in
  let workspace = Maximin.create_workspace () in
  let snapshot = Router.full_snapshot ~node_count:16 ~levels:8 in
  ignore (Maximin.compute ~workspace ~graph ~mapping ~module_count:3 snapshot);
  let previous = ref (copy_snapshot snapshot) in
  let step name mutate =
    mutate snapshot;
    let delta = Router.Delta.diff ~previous:!previous snapshot in
    let got =
      Maximin.compute_incremental ~workspace ~graph ~mapping ~module_count:3 ~delta
        snapshot
    in
    previous := copy_snapshot snapshot;
    Alcotest.(check bool) name true
      (Routing_table.equal got (Maximin.compute ~graph ~mapping ~module_count:3 snapshot))
  in
  step "empty delta" (fun _ -> ());
  step "lock-only" (fun s -> s.Router.locked_ports <- [ (5, 6) ]);
  step "level change falls back" (fun s -> s.Router.battery_level.(3) <- 1);
  step "death falls back" (fun s -> s.Router.alive.(10) <- false)

let test_sdr_level_only_returns_cached_table () =
  (* a battery-blind weight never reads levels: the cached table must
     come back as the same object, not a recomputed copy *)
  let graph, mapping = mesh_parts 4 in
  let workspace = Router.create_workspace () in
  let snapshot = Router.full_snapshot ~node_count:16 ~levels:8 in
  let cached =
    Router.compute ~workspace ~graph ~mapping ~module_count:3
      ~weight:Weight.Shortest_distance snapshot
  in
  let previous = copy_snapshot snapshot in
  snapshot.Router.battery_level.(7) <- 1;
  let got =
    Router.compute_incremental ~workspace ~graph ~mapping ~module_count:3
      ~weight:Weight.Shortest_distance
      ~delta:(Router.Delta.diff ~previous snapshot)
      snapshot
  in
  Alcotest.(check bool) "same object" true (got == cached)

(* - QCheck: incremental == full over random meshes and random
   controller-style mutation sequences.  The scenario record is fully
   deterministic in its fields, so a failure printout is a replay
   recipe. - *)

type repair_scenario = { size : int; seed : int; steps : int; policy_ix : int }

let repair_scenario_gen =
  QCheck.Gen.(
    map
      (fun (size, seed, steps, policy_ix) -> { size; seed; steps; policy_ix })
      (tup4 (int_range 3 6) (int_range 0 100_000) (int_range 1 12) (int_range 0 2)))

let repair_scenario_print s =
  Printf.sprintf
    "{size=%d seed=%d steps=%d policy=%s} (the seed fully determines the mutation \
     sequence: replay with these exact fields)"
    s.size s.seed s.steps
    (match s.policy_ix with 0 -> "ear" | 1 -> "sdr" | _ -> "maximin")

let repair_scenario_arbitrary =
  QCheck.make ~print:repair_scenario_print repair_scenario_gen

let run_repair_scenario s =
  let t = Topology.square_mesh ~size:s.size () in
  let graph = t.Topology.graph in
  let mapping = Mapping.checkerboard t in
  let n = s.size * s.size in
  let prng = Prng.create ~seed:s.seed in
  let edges = ref [] in
  Etx_graph.Digraph.iter_edges graph ~f:(fun ~src ~dst ~length:_ ->
      edges := (src, dst) :: !edges);
  let edges = Array.of_list (List.rev !edges) in
  let snapshot = Router.full_snapshot ~node_count:n ~levels:8 in
  for i = 0 to n - 1 do
    snapshot.Router.battery_level.(i) <- Prng.int prng ~bound:8
  done;
  let weight, use_maximin =
    match s.policy_ix with
    | 0 -> (Weight.Exponential { q = 2. }, false)
    | 1 -> (Weight.Shortest_distance, false)
    | _ -> (Weight.Shortest_distance, true)
  in
  let router_ws = Router.create_workspace () in
  let maximin_ws = Maximin.create_workspace () in
  let incremental delta =
    if use_maximin then
      Maximin.compute_incremental ~workspace:maximin_ws ~graph ~mapping ~module_count:3
        ~delta snapshot
    else
      Router.compute_incremental ~workspace:router_ws ~graph ~mapping ~module_count:3
        ~weight ~delta snapshot
  in
  let full () =
    if use_maximin then Maximin.compute ~graph ~mapping ~module_count:3 snapshot
    else Router.compute ~graph ~mapping ~module_count:3 ~weight snapshot
  in
  (* frame 0: nothing cached yet, the full delta primes the workspace *)
  let ok = ref (Routing_table.equal (incremental Router.Delta.full) (full ())) in
  let previous = ref (copy_snapshot snapshot) in
  for _ = 1 to s.steps do
    (* controller-style drift: mostly battery levels, sometimes deaths,
       lock flips, wear-outs, sometimes a perfectly quiet frame *)
    (match Prng.int prng ~bound:8 with
    | 0 -> ()
    | 1 -> snapshot.Router.alive.(Prng.int prng ~bound:n) <- false
    | 2 ->
      let e = edges.(Prng.int prng ~bound:(Array.length edges)) in
      snapshot.Router.locked_ports <-
        (if List.mem e snapshot.Router.locked_ports then
           List.filter (fun x -> x <> e) snapshot.Router.locked_ports
         else e :: snapshot.Router.locked_ports)
    | 3 ->
      let e = edges.(Prng.int prng ~bound:(Array.length edges)) in
      if not (List.mem e snapshot.Router.failed_links) then
        snapshot.Router.failed_links <- e :: snapshot.Router.failed_links
    | _ ->
      (* 1..n/2 dirty nodes: straddles the 15% damage threshold, so both
         the column-patch and the refill fallback get exercised *)
      let touched = 1 + Prng.int prng ~bound:(max 1 (n / 2)) in
      for _ = 1 to touched do
        snapshot.Router.battery_level.(Prng.int prng ~bound:n) <- Prng.int prng ~bound:8
      done);
    let delta = Router.Delta.diff ~previous:!previous snapshot in
    ok := !ok && Routing_table.equal (incremental delta) (full ());
    previous := copy_snapshot snapshot
  done;
  !ok

let prop_incremental_equals_full =
  QCheck.Test.make ~name:"incremental: delta repair equals full recompute" ~count:200
    repair_scenario_arbitrary run_repair_scenario

(* - engine golden digests: the frame engine, which repairs tables from
   each frame's delta, must reproduce metrics recorded when every frame
   recomputed from scratch - *)

let digest m = Digest.to_hex (Digest.string (Etx_util.Json.to_string (Metrics.to_json m)))

let check_golden ~name ~expected config =
  Alcotest.(check string) name expected (digest (Engine.simulate config))

let thin_film = Battery.Thin_film Battery.default_thin_film

let test_golden_policies () =
  List.iter
    (fun (name, policy, expected) ->
      check_golden ~name ~expected
        (Calibration.config ~policy ~battery_kind:thin_film ~seed:3 ~mesh_size:4 ()))
    [
      ("ear-4-thin", Calibration.ear (), "1f89cdceace4a59041df8c26c4f7524d");
      ("sdr-4-thin", Calibration.sdr (), "64658a76c6b9d5febaa9eeb03c41ab85");
      ("maximin-4-thin", Policy.maximin (), "5eb37fed7504fd3916150939421888f0");
      ("ear2-4-thin", Policy.ear_squared (), "7ab683000344ed7d1b68e92479e98962");
    ]

let test_golden_ideal () =
  check_golden ~name:"ear-4-ideal" ~expected:"040622562ce0e4bc4f60620176866026"
    (Calibration.config ~battery_kind:Battery.Ideal ~seed:7 ~mesh_size:4 ())

let test_golden_ideal_boundary () =
  (* long idle stretches with battery levels crossed mid-stretch *)
  let config = Calibration.config ~battery_kind:Battery.Ideal ~seed:5 ~mesh_size:4 () in
  check_golden ~name:"ideal-idle-boundary" ~expected:"de21335552536a76ace32d2e130c0f46"
    {
      config with
      Config.battery_capacity_pj = 300_000.;
      computation_cycles = [| 400_000; 400_000; 400_000 |];
    }

let failure_schedule () =
  Etextile.Experiments.random_failure_schedule
    ~topology:(Topology.square_mesh ~size:5 ())
    ~count:4 ~before_cycle:40_000 ~seed:93

let test_golden_link_failures () =
  check_golden ~name:"ear-5-failures" ~expected:"9a1c17169a9202a2ab2a736fd722c6ba"
    (Calibration.config ~seed:2 ~link_failure_schedule:(failure_schedule ()) ~mesh_size:5 ())

(* - checkpoints: stop/resume is bit-identical - *)

let finish engine =
  match Engine.run_until engine ~cycle:max_int with
  | Engine.Finished metrics -> metrics
  | Engine.Paused -> Alcotest.fail "run_until max_int paused"

let pause ~name config ~cycle =
  let engine = Engine.create config in
  match Engine.run_until engine ~cycle with
  | Engine.Finished _ -> Alcotest.fail (name ^ ": died before the pause")
  | Engine.Paused -> engine

let check_checkpoints ~name config =
  let reference = Engine.simulate config in
  let lifetime = reference.Metrics.lifetime_cycles in
  List.iter
    (fun stop ->
      let payload = Engine.checkpoint (pause ~name config ~cycle:stop) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: resume @%d" name stop)
        true
        (finish (Engine.restore config payload) = reference))
    [ lifetime / 5; lifetime / 2 ];
  (* a checkpoint of a restored engine resumes identically too *)
  let restored =
    Engine.restore config (Engine.checkpoint (pause ~name config ~cycle:(lifetime / 5)))
  in
  match Engine.run_until restored ~cycle:(lifetime / 3) with
  | Engine.Finished _ -> Alcotest.fail (name ^ ": died before the second pause")
  | Engine.Paused ->
    Alcotest.(check bool)
      (name ^ ": checkpoint of a restored engine")
      true
      (finish (Engine.restore config (Engine.checkpoint restored)) = reference)

let test_checkpoint_thin_film () =
  check_checkpoints ~name:"thin-4" (Calibration.config ~seed:1 ~mesh_size:4 ())

let test_checkpoint_ideal () =
  check_checkpoints ~name:"ideal-4"
    (Calibration.config ~battery_kind:Battery.Ideal ~seed:1 ~mesh_size:4 ())

let test_checkpoint_pending_failures () =
  (* failures still scheduled at the pause must fire after the resume *)
  let config =
    Calibration.config ~seed:2 ~link_failure_schedule:(failure_schedule ()) ~mesh_size:5 ()
  in
  let reference = Engine.simulate config in
  let engine = pause ~name:"pending" config ~cycle:20_000 in
  Alcotest.(check bool) "resume with pending failures" true
    (finish (Engine.restore config (Engine.checkpoint engine)) = reference)

let suite =
  [
    ( "incremental/delta",
      [
        ("empty diff", `Quick, test_delta_empty);
        ("dirty levels pinned", `Quick, test_delta_levels);
        ("structural flags", `Quick, test_delta_structural_flags);
        ("shape change is full", `Quick, test_delta_full_on_shape_change);
        ("identity short-circuit", `Quick, test_delta_identity_short_circuit);
      ] );
    ( "incremental/repair",
      [
        ("EAR repair classes", `Quick, test_repair_classes_ear);
        ("maximin repair classes", `Quick, test_repair_classes_maximin);
        ("SDR level-only cache", `Quick, test_sdr_level_only_returns_cached_table);
        ("level-only patch allocation", `Quick, test_level_patch_allocation);
        QCheck_alcotest.to_alcotest prop_incremental_equals_full;
      ] );
    ( "event-driven/engine",
      [
        ("golden: policies", `Quick, test_golden_policies);
        ("golden: ideal batteries", `Quick, test_golden_ideal);
        ("golden: ideal boundary", `Quick, test_golden_ideal_boundary);
        ("golden: link failures", `Quick, test_golden_link_failures);
      ] );
    ( "event-driven/checkpoint",
      [
        ("thin-film stop/resume + cross-checkpoint chain", `Quick, test_checkpoint_thin_film);
        ("ideal stop/resume + cross-checkpoint chain", `Quick, test_checkpoint_ideal);
        ("pending failures reschedule", `Quick, test_checkpoint_pending_failures);
      ] );
  ]

(* Standalone per-layer timings on fixed inputs, measured from outside
   through each module's public functions.  They do not depend on the
   workload or the seed, so every traced run reports them and a change
   to one layer shows here even when the workload hides it. *)

module Router = Etx_routing.Router
module Maximin = Etx_routing.Maximin
module Json = Etx_util.Json
open Common

let us s = s *. 1e6
let ns s = s *. 1e9

(* The calibrated controller inputs for a square mesh: checkerboard
   mapping of the three AES modules, EAR's exponential weight (Q = 2),
   8 levels. *)
let mesh size =
  let topology = Etx_graph.Topology.square_mesh ~size () in
  let mapping = Etx_routing.Mapping.checkerboard topology in
  let snapshot = Router.full_snapshot ~node_count:(size * size) ~levels:8 in
  (topology.Etx_graph.Topology.graph, mapping, snapshot)

let weight = Etx_routing.Weight.Exponential { q = 2. }

let compute_s ~reps ~inner size =
  let graph, mapping, snapshot = mesh size in
  let workspace = Router.create_workspace () in
  repeat_median ~reps ~inner (fun () ->
      ignore (Router.compute ~workspace ~graph ~mapping ~module_count:3 ~weight snapshot))

(* Full routing recompute cost per mesh size, for the estimated share
   of engine time spent routing: recomputations x cost / engine.run_s.
   An estimate, since a recompute inside a run sees dead nodes and
   uneven levels. *)
let router_share ~run_s recomputes_by_mesh =
  let cost = Hashtbl.create 8 in
  let total =
    List.fold_left
      (fun acc (size, recomputes) ->
        let c =
          match Hashtbl.find_opt cost size with
          | Some c -> c
          | None ->
            let c = compute_s ~reps:5 ~inner:10 size in
            Hashtbl.replace cost size c;
            c
        in
        acc +. (float_of_int recomputes *. c))
      0. recomputes_by_mesh
  in
  set "router.share_est" (total /. run_s)

let routing () =
  set "router.compute_us.8x8" (us (compute_s ~reps:7 ~inner:40 8));
  let graph, mapping, snapshot = mesh 8 in
  let workspace = Router.create_workspace () in
  ignore (Router.compute ~workspace ~graph ~mapping ~module_count:3 ~weight snapshot);
  (* the lock-only repair class the controller hits in steady state *)
  let delta = Router.Delta.make ~locks_changed:true () in
  set "router.incremental_us.8x8"
    (us
       (repeat_median ~reps:7 ~inner:40 (fun () ->
            snapshot.Router.locked_ports <-
              (match snapshot.Router.locked_ports with [] -> [ (0, 1) ] | _ -> []);
            ignore
              (Router.compute_incremental ~workspace ~graph ~mapping ~module_count:3 ~weight ~delta
                 snapshot))));
  snapshot.Router.locked_ports <- [];
  let workspace = Maximin.create_workspace () in
  set "maximin.compute_us.8x8"
    (us
       (repeat_median ~reps:7 ~inner:40 (fun () ->
            ignore (Maximin.compute ~workspace ~graph ~mapping ~module_count:3 snapshot))));
  let w = Router.weight_matrix ~graph ~weight snapshot in
  set "floyd_warshall.run_us.8x8"
    (us (repeat_median ~reps:7 ~inner:40 (fun () -> ignore (Etx_graph.Floyd_warshall.run w))))

let battery_and_aes () =
  let battery =
    Etx_battery.Battery.create
      ~kind:(Etx_battery.Battery.Thin_film Etx_battery.Battery.default_thin_film)
      ~capacity_pj:1e12
  in
  set "battery.draw_tick_ns"
    (ns
       (repeat_median ~reps:7 ~inner:20_000 (fun () ->
            ignore (Etx_battery.Battery.draw battery ~energy_pj:20.);
            Etx_battery.Battery.tick battery ~cycles:50)));
  let key = Etx_aes.Aes.key_of_hex "000102030405060708090a0b0c0d0e0f" in
  let block = Etx_aes.Block.of_hex "00112233445566778899aabbccddeeff" in
  set "aes.encrypt_block_ns"
    (ns (repeat_median ~reps:7 ~inner:5_000 (fun () -> ignore (Etx_aes.Aes.encrypt_block key block))))

(* one control frame of a fresh calibrated engine: status upload,
   compare and (when levels moved) a routing recompute *)
let frames () =
  List.iter
    (fun mesh_size ->
      let config = Etextile.Calibration.config ~mesh_size ~seed:1 () in
      let per_frame =
        median
          (List.init 7 (fun _ ->
               let engine = Etx_etsim.Engine.create config in
               let (), dt = time (fun () -> Etx_etsim.Engine.run_frames engine ~count:64) in
               dt /. 64.))
      in
      set (Printf.sprintf "engine.us_per_frame.%dx%d" mesh_size mesh_size) (us per_frame))
    [ 4; 8 ]

(* The serving path's request, in process: parse, fingerprint, render
   the ~1.3 KB simulate result, and whole-batch cache hits through a
   server and through a router whose transport calls that server. *)
let request_line = {|{"id":1,"scenario":"simulate","params":{"mesh_size":6,"seed":7,"policy":"ear"}}|}

let service ~dir =
  let module Service = Etx_service in
  let scenario =
    match Service.Request.of_line request_line with
    | Ok { Service.Request.body = Service.Request.Scenario s; _ } -> s
    | _ -> failwith "layer probe: request did not parse"
  in
  set "request.of_line_us"
    (us (repeat_median ~reps:7 ~inner:2_000 (fun () -> ignore (Service.Request.of_line request_line))));
  set "handlers.fingerprint_us"
    (us (repeat_median ~reps:7 ~inner:500 (fun () -> ignore (Service.Handlers.fingerprint scenario))));
  let result =
    Etx_util.Pool.with_pool ~domains:1 (fun pool ->
        match Service.Handlers.execute ~pool scenario with
        | Ok r -> r
        | Error e -> failwith e)
  in
  set "json.to_string_us"
    (us (repeat_median ~reps:7 ~inner:500 (fun () -> ignore (Json.to_string result))));
  let bytes = Json.to_string result in
  let store = Service.Store.open_dir (Filename.concat dir "store") in
  let adds =
    List.init 12 (fun i ->
        let (), dt = time (fun () -> Service.Store.add store (Printf.sprintf "layer-key-%d" i) bytes) in
        dt)
  in
  set "store.add_us" (us (median adds));
  set "store.find_us"
    (us
       (repeat_median ~reps:7 ~inner:100 (fun () ->
            ignore (Service.Store.find store "layer-key-3"))));
  let server = Service.Server.create { Service.Server.default_config with domains = 1 } in
  Fun.protect ~finally:(fun () -> Service.Server.shutdown server) @@ fun () ->
  ignore (Service.Server.handle_batch server [ request_line ]);
  set "server.handle_batch_hit_us"
    (us
       (repeat_median ~reps:7 ~inner:300 (fun () ->
            ignore (Service.Server.handle_batch server [ request_line ]))));
  let rpc ~path:_ ~timeout_s:_ line =
    match Service.Server.handle_batch server [ line ] with
    | [ response ] -> Ok response
    | _ -> Error "batch of one answered with another count"
  in
  let router =
    Service.Cluster.create ~rpc (Service.Cluster.default_config ~backends:[ "a"; "b" ])
  in
  set "cluster.handle_batch_hit_us"
    (us
       (repeat_median ~reps:7 ~inner:300 (fun () ->
            ignore (Service.Cluster.handle_batch router [ request_line ]))))

let run () =
  let dir = fresh_dir "layers" in
  Fun.protect ~finally:(fun () -> remove_tree dir) @@ fun () ->
  Tracer.with_span ~root:true "layers" (fun () ->
      Tracer.with_span "layers.routing" routing;
      Tracer.with_span "layers.battery_aes" battery_and_aes;
      Tracer.with_span "layers.frames" frames;
      Tracer.with_span "layers.service" (fun () -> service ~dir))

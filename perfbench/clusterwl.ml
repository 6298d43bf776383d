(* cluster-hot and cluster-churn: open-loop traffic through `etx cluster
   --backends 2` (a router and two single-domain backends sharing one
   durable store), driven over one pipelined connection.

   A run spawns the cluster in a fresh directory (socket and store),
   warms it, then measures three phases on the same connection: an open
   loop at the low and at the high frozen rate, and saturation bursts at
   a fixed window.  Every response must be "ok"; the result bytes of
   every checked key must equal in-process Handlers.execute for the same
   parameters.  The cluster is shut down, or killed on any failure, and
   reaped before the run returns. *)

module Json = Etx_util.Json
module Request = Etx_service.Request
module Handlers = Etx_service.Handlers
open Common

let etx_exe = ref "etx"

type key = { mesh : int; policy : string; seed : int }

let line_of ~id k =
  Printf.sprintf {|{"id":%d,"scenario":"simulate","params":{"mesh_size":%d,"seed":%d,"policy":"%s"}}|}
    id k.mesh k.seed k.policy

let scenario_of k =
  match Request.of_line (line_of ~id:0 k) with
  | Ok { Request.body = Request.Scenario s; _ } -> s
  | _ -> failwith "benchmark request did not parse"

(* - the workloads - *)

type spec = {
  name : string;
  seed : int;
  low_rps : float;  (** frozen offered rates *)
  high_rps : float;
  depth : int;  (** saturation window *)
  burst : int;  (** requests per saturation burst *)
  warm : key array;  (** sent once before timing *)
  next : unit -> key;  (** the timed open-loop request stream *)
  burst_keys : unit -> key array;  (** the keys of one saturation burst *)
  checked : key -> bool;  (** keys whose result bytes are compared *)
}

let random_key rng ~meshes =
  {
    mesh = meshes.(Random.State.int rng (Array.length meshes));
    policy = (if Random.State.bool rng then "ear" else "sdr");
    seed = 1 + Random.State.int rng 1_000_000;
  }

(* 64 simulate configurations (meshes 4..8, EAR/SDR), requested with
   Zipf (s = 1) popularity over a seeded ranking; every key is warmed,
   so timed requests are LRU hits. *)
let hot ~seed =
  let rng = Random.State.make [| seed; 1 |] in
  let keys = Hashtbl.create 64 in
  while Hashtbl.length keys < 64 do
    Hashtbl.replace keys (random_key rng ~meshes:[| 4; 5; 6; 7; 8 |]) ()
  done;
  let keys = Array.of_seq (Hashtbl.to_seq_keys keys) in
  Array.sort compare keys;
  for i = Array.length keys - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- t
  done;
  let cumulative = Array.make 64 0. in
  Array.iteri
    (fun r _ -> cumulative.(r) <- (1. /. float_of_int (r + 1)) +. if r = 0 then 0. else cumulative.(r - 1))
    cumulative;
  let next () =
    let u = Random.State.float rng cumulative.(63) in
    let rec find lo hi = if lo >= hi then lo else
        let mid = (lo + hi) / 2 in
        if cumulative.(mid) > u then find lo mid else find (mid + 1) hi
    in
    keys.(find 0 63)
  in
  let burst = 600 in
  {
    name = "cluster-hot"; seed; low_rps = 600.; high_rps = 2100.; depth = 16; burst;
    warm = Array.copy keys; next; burst_keys = (fun () -> Array.init burst (fun _ -> next ()));
    checked = (fun _ -> true);
  }

(* Mostly fresh keys (new seeds on 4x4/5x5, EAR/SDR); the rest repeat an
   earlier key uniformly, and with a 128-entry LRU per backend most of
   those have been evicted, so they are served from the durable store.
   Fresh keys are computed and written to the store.

   A fresh 5x5 EAR key costs about ten times a fresh SDR key, so a
   saturation burst drawn at random would vary by some 15% with its mix
   alone.  Each burst is therefore dealt from a shuffled deck of exactly
   nine fresh keys of each mesh and policy plus 24 repeats: the same 60%
   share, the same cost from burst to burst, and only the order and the
   seeds left to the seed. *)
let churn ~seed =
  let rng = Random.State.make [| seed; 2 |] in
  let base = 1 + Random.State.int rng 1_000_000_000 in
  let issued = ref [||] and count = ref 0 in
  let fresh_of mesh policy =
    let k = { mesh; policy; seed = base + !count } in
    if !count = Array.length !issued then
      issued := Array.append !issued (Array.make (max 64 !count) k);
    !issued.(!count) <- k;
    incr count;
    k
  in
  let fresh () = fresh_of (if Random.State.bool rng then 4 else 5) (if Random.State.bool rng then "ear" else "sdr") in
  let repeat () = !issued.(Random.State.int rng !count) in
  let next () = if Random.State.float rng 1. < 0.6 then fresh () else repeat () in
  let deck =
    Array.concat
      (Array.make 24 `Repeat
      :: List.map (fun combo -> Array.make 9 (`Fresh combo)) [ (4, "ear"); (4, "sdr"); (5, "ear"); (5, "sdr") ])
  in
  let burst_keys () =
    let d = Array.copy deck in
    for i = Array.length d - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = d.(i) in
      d.(i) <- d.(j);
      d.(j) <- t
    done;
    Array.map (function `Repeat -> repeat () | `Fresh (mesh, policy) -> fresh_of mesh policy) d
  in
  let warm = Array.init 300 (fun _ -> fresh ()) in
  {
    name = "cluster-churn"; seed; low_rps = 65.; high_rps = 225.; depth = 8; burst = Array.length deck;
    warm; next; burst_keys;
    (* a seeded one-in-sixteen sample of the keys *)
    checked = (fun k -> Hashtbl.hash (k.seed, k.mesh, k.policy, seed) land 15 = 0);
  }

(* - the cluster under test - *)

type cluster = { pid : int; socket : string; dir : string; mutable backends : int list }

let ping socket =
  match Loadgen.call ~timeout_s:2. socket {|{"id":"ready","scenario":"ping"}|} with
  | Ok line -> String.length line > 0
  | Error _ -> false

let gone pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> (
    (* not our child (an orphaned backend): ended once /proc says so *)
    match open_in (Printf.sprintf "/proc/%d/stat" pid) with
    | exception Sys_error _ -> true
    | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      (match String.rindex_opt line ')' with
       | Some i when i + 2 < String.length line -> line.[i + 2] = 'Z'
       | _ -> true))

let wait_gone ~timeout_s pid =
  let deadline = now () +. timeout_s in
  let rec loop () = if gone pid then true else if now () > deadline then false else (Unix.sleepf 0.005; loop ()) in
  loop ()

let kill pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

(* Graceful shutdown (forwarded to the backends, which the router then
   reaps); anything still running after that is killed and waited for. *)
let stop c =
  if not (gone c.pid) then begin
    ignore (Loadgen.call ~timeout_s:5. c.socket {|{"scenario":"shutdown"}|});
    if not (wait_gone ~timeout_s:10. c.pid) then begin
      kill c.pid;
      ignore (wait_gone ~timeout_s:10. c.pid)
    end
  end;
  List.iter (fun b -> if not (gone b) then (kill b; ignore (wait_gone ~timeout_s:10. b))) c.backends

(* The measured cluster's backends are pinned in turn to the CPUs this
   process may use (taskset); the router and the client float.  Left to the scheduler, the two
   computing backends sometimes share one CPU while the other runs the
   router, and cluster-churn's bursts then spread far more between runs. *)
let cpus =
  (* the CPUs this process may run on, from Cpus_allowed_list ("0-1,4") *)
  let range r =
    match String.split_on_char '-' (String.trim r) with
    | [ a ] -> [ int_of_string a ]
    | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (( + ) (int_of_string a))
    | _ -> []
  in
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> [||]
  | status ->
    String.split_on_char '\n' status
    |> List.find_map (fun l ->
           match String.split_on_char ':' l with
           | [ "Cpus_allowed_list"; v ] -> Some (Array.of_list (List.concat_map range (String.split_on_char ',' v)))
           | _ -> None)
    |> Option.value ~default:[||]

let pin pid cpu =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let argv = [| "taskset"; "-p"; "-c"; string_of_int cpu; string_of_int pid |] in
  let p = Fun.protect ~finally:(fun () -> Unix.close devnull) (fun () ->
      Unix.create_process "taskset" argv Unix.stdin devnull devnull) in
  match Unix.waitpid [] p with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "taskset could not pin backend %d to CPU %d" pid cpu)

let spawn dir =
  let socket = Filename.concat dir "router.sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let log = Unix.openfile (Filename.concat dir "cluster.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let argv =
    [| !etx_exe; "cluster"; "--backends"; "2"; "--jobs"; "1"; "--dir"; dir; "--socket"; socket |]
  in
  let pid = Unix.create_process !etx_exe argv devnull log log in
  Unix.close devnull;
  Unix.close log;
  let c = { pid; socket; dir; backends = [] } in
  let deadline = now () +. 60. in
  let rec wait () =
    if ping socket then ()
    else if gone pid || now () > deadline then begin
      stop c;
      failwith ("cluster did not come up; see " ^ Filename.concat dir "cluster.log")
    end
    else (Unix.sleepf 0.002; wait ())
  in
  wait ();
  c.backends <- children pid;
  c

(* - responses - *)

(* the index just past the first [pat] at or after [from] *)
let find_from line ~from pat =
  let n = String.length line and m = String.length pat in
  let rec matches i j = j = m || (line.[i + j] = pat.[j] && matches i (j + 1)) in
  let rec go i = if i + m > n then None else if matches i 0 then Some (i + m) else go (i + 1) in
  go from

type reply = {
  mutable ok : bool;  (** status ok, right id, a result object *)
  mutable tier : string;  (** the backend's "cache" field *)
  mutable elapsed_ms : float;  (** the backend's own time *)
  mutable digest : Digest.t;  (** of the result bytes, for checked keys *)
}

let blank () = { ok = false; tier = ""; elapsed_ms = nan; digest = "" }

(* cheap enough for the receiver thread: a prefix check, two field scans
   and, for checked keys, a digest of the result bytes *)
let inspect ~id ~checked reply line =
  let prefix = Printf.sprintf {|{"id":%d,"status":"ok",|} id in
  if String.starts_with ~prefix line && String.ends_with ~suffix:"}" line then begin
    (match find_from line ~from:0 {|"cache":"|} with
     | Some i -> reply.tier <- String.sub line i (String.index_from line i '"' - i)
     | None -> ());
    (match find_from line ~from:0 {|"elapsed_ms":|} with
     | Some i ->
       reply.elapsed_ms <-
         Option.value ~default:nan (float_of_string_opt (String.sub line i (String.index_from line i ',' - i)))
     | None -> ());
    match find_from line ~from:(String.length prefix) {|"result":|} with
    | Some i ->
      reply.ok <- true;
      if checked then reply.digest <- Digest.substring line i (String.length line - 1 - i)
    | None -> ()
  end

(* - scraping the daemons' own counters - *)

let scrape socket =
  let table = Hashtbl.create 64 in
  (match Loadgen.call socket {|{"scenario":"metrics","params":{"format":"prometheus"}}|} with
   | Error _ -> ()
   | Ok line -> (
     match Json.parse_result line with
     | Ok json -> (
       match Json.member "result" json with
       | Some (Json.String text) ->
         String.split_on_char '\n' text
         |> List.iter (fun l ->
                if l <> "" && l.[0] <> '#' then
                  match String.rindex_opt l ' ' with
                  | None -> ()
                  | Some sp ->
                    let series = String.sub l 0 sp in
                    let family = match String.index_opt series '{' with Some b -> String.sub series 0 b | None -> series in
                    let v = Option.value (float_of_string_opt (String.sub l (sp + 1) (String.length l - sp - 1))) ~default:0. in
                    Hashtbl.replace table family (v +. Option.value (Hashtbl.find_opt table family) ~default:0.))
       | _ -> ())
     | Error _ -> ()));
  fun family -> Option.value (Hashtbl.find_opt table family) ~default:0.

(* - one run - *)

let rounds = 6

type sent = { key : key; reply : reply; phase : string }

let run spec ~seconds ~traced =
  (* set-up: spawn until the router answers ping with both backends up;
     done several times, the last cluster is kept *)
  let setups = 3 in
  let cluster = ref None in
  let setup_times =
    List.init setups (fun i ->
        let dir = fresh_dir spec.name in
        let c, dt = Tracer.with_span ~root:true "cluster.spawn" (fun () -> time (fun () -> spawn dir)) in
        if i < setups - 1 then (stop c; remove_tree dir) else cluster := Some c;
        dt)
  in
  let c = Option.get !cluster in
  (try List.iteri (fun i b -> pin b cpus.(i mod Array.length cpus)) (if cpus = [||] then [] else c.backends)
   with e -> stop c; remove_tree c.dir; raise e);
  let all = ref [] in
  let next_id = ref 0 in
  let batch keys phase =
    Array.map
      (fun key ->
        incr next_id;
        let s = { key; reply = blank (); phase } in
        all := (!next_id, s) :: !all;
        (!next_id, s))
      keys
  in
  let on_response items i line =
    let id, s = items.(i) in
    inspect ~id ~checked:(spec.checked s.key) s.reply line
  in
  let lines items = Array.map (fun (id, s) -> line_of ~id s.key) items in
  let slices = ref [] and bursts = ref [] and rss = ref 0. and scraped = ref (fun _ -> 0.) in
  let rng = Random.State.make [| spec.seed; 3 |] in
  Fun.protect ~finally:(fun () -> stop c; remove_tree c.dir) (fun () ->
      let conn = match Loadgen.connect c.socket with Ok conn -> conn | Error e -> failwith ("connect: " ^ e) in
      Fun.protect ~finally:(fun () -> Loadgen.close conn) (fun () ->
          let warm = batch spec.warm "warm" in
          Tracer.with_span ~root:true "cluster.warm" (fun () ->
              ignore (Loadgen.window conn ~lines:(lines warm) ~depth:spec.depth ~on_response:(on_response warm)));
          (* Interleaved rounds of a low-rate slice, a high-rate slice and
             saturation bursts: a transient slowdown of the host lands in
             a few rounds, and each metric summarises the rounds. *)
          let round_s = float_of_int seconds /. float_of_int rounds in
          for round = 1 to rounds do
            List.iter
              (fun (phase, rate, share) ->
                let schedule = Loadgen.poisson_schedule rng ~rate ~duration:(share *. round_s) in
                let items = batch (Array.map (fun _ -> spec.next ()) schedule) phase in
                let result =
                  Tracer.with_span ~root:true ("cluster." ^ phase) (fun () ->
                      let trace, parent = Tracer.context () in
                      let r = Loadgen.open_loop conn ~lines:(lines items) ~schedule ~on_response:(on_response items) in
                      Array.iteri
                        (fun i sent ->
                          if Float.is_finite r.completed.(i) then Tracer.record ~trace ~parent "rpc" sent r.completed.(i))
                        r.sent;
                      r)
                in
                slices := (phase, round, items, result) :: !slices)
              [ ("low", spec.low_rps, 0.25); ("high", spec.high_rps, 0.15) ];
            (* the rest of the round: saturation bursts, at least one *)
            let round_end = now () +. (0.6 *. round_s) in
            let rec bursts_until_end () =
              (* a traced run alternates traced and plain bursts, so the
                 tracing overhead is measured in the same process *)
              let tracing = traced && List.length !bursts mod 2 = 1 in
              Tracer.set_enabled tracing;
              let kernel = kernel_s () in
              let items = batch (spec.burst_keys ()) "sat" in
              (match
                 Tracer.with_span ~root:true "cluster.sat" (fun () ->
                     Loadgen.window conn ~lines:(lines items) ~depth:spec.depth ~on_response:(on_response items))
               with
               | Some wall -> bursts := (tracing, wall, kernel) :: !bursts
               | None -> failwith "connection failed during a saturation burst");
              Tracer.set_enabled traced;
              if now () < round_end then bursts_until_end ()
            in
            bursts_until_end ()
          done);
      scraped :=
        (let router = scrape c.socket in
         let backends = List.init 2 (fun i -> scrape (Filename.concat c.dir (Printf.sprintf "backend%d.sock" i))) in
         fun family -> router family +. List.fold_left (fun acc b -> acc +. b family) 0. backends);
      rss := List.fold_left (fun acc pid -> acc +. vm_hwm_mb pid) 0. (c.pid :: c.backends));
  (* correctness: every reply ok; checked keys byte-equal to Handlers.execute *)
  let sent = List.rev !all in
  let expected = Hashtbl.create 64 in
  let engine_runs = ref [] in
  Etx_util.Pool.with_pool ~domains:1 (fun pool ->
      Tracer.with_span ~root:true "reference" (fun () ->
          List.iter
            (fun (_, s) ->
              if spec.checked s.key && not (Hashtbl.mem expected s.key) then
                match Tracer.with_span "handlers.execute" (fun () -> Handlers.execute ~pool (scenario_of s.key)) with
                | Ok result -> Hashtbl.replace expected s.key (Json.to_string result)
                | Error e -> check false "Handlers.execute failed for seed %d: %s" s.key.seed e)
            sent));
  if traced then begin
    (* the engine layer on this workload's own keys, timed from outside *)
    Etx_obs.Obs.reset ();
    Etx_obs.Obs.arm ();
    Hashtbl.iter
      (fun k bytes ->
        let policy = if k.policy = "ear" then Etextile.Calibration.ear () else Etextile.Calibration.sdr () in
        let config =
          Etextile.Calibration.config ~policy ~seed:k.seed ~concurrent_jobs:1 ~max_retransmissions:3 ~mesh_size:k.mesh ()
        in
        let engine, create_s = time (fun () -> Tracer.with_span "engine.create" (fun () -> Etx_etsim.Engine.create config)) in
        let m, run_s = time (fun () -> Tracer.with_span "engine.run" (fun () -> Etx_etsim.Engine.run engine)) in
        check (Json.to_string (Etx_etsim.Metrics.to_json m) = bytes) "engine and handler disagree on seed %d" k.seed;
        engine_runs := (create_s, run_s, (k, m)) :: !engine_runs)
      expected;
    let full, incremental = Sweep.recompute_counts () in
    Etx_obs.Obs.disarm ();
    set "controller.full_recomputes" (float_of_int full);
    set "controller.incremental_recomputes" (float_of_int incremental)
  end;
  List.iter
    (fun (id, s) ->
      let good =
        s.reply.ok
        && ((not (spec.checked s.key))
           || match Hashtbl.find_opt expected s.key with
              | Some bytes -> Digest.string bytes = s.reply.digest
              | None -> false)
      in
      check good "request %d (%s, %dx%d %s seed %d) failed or differs" id s.phase s.key.mesh s.key.mesh s.key.policy
        s.key.seed)
    sent;
  (* - end-to-end - *)
  let measured = List.filter (fun (_, s) -> s.phase <> "warm") sent in
  (* latency from the intended send time; a request never answered
     counts as infinitely slow *)
  let latencies (r : Loadgen.open_result) =
    Array.to_list
      (Array.mapi
         (fun i t -> if Float.is_finite r.completed.(i) then (r.completed.(i) -. t) *. 1000. else infinity)
         r.intended)
  in
  let per_round phase q =
    lower_quartile
      (List.filter_map (fun (p, _, _, r) -> if p = phase then Some (quantile q (latencies r)) else None) !slices)
  in
  let plain = List.filter (fun (t, _, _) -> not t) !bursts in
  let plain_bursts = List.map (fun (_, w, _) -> w) plain in
  let calibrated_bursts = List.map (fun (_, w, k) -> calibrated ~kernel_s:k w) plain in
  set "setup_s" (median setup_times);
  set "wall_cal_s" (lower_quartile calibrated_bursts);
  set "sat_cal_rps" (float_of_int spec.burst /. lower_quartile calibrated_bursts);
  set "wall_raw_s" (lower_quartile plain_bursts);
  set "sat_raw_rps" (float_of_int spec.burst /. lower_quartile plain_bursts);
  set "host.kernel_ms" (1000. *. median (List.map (fun (_, _, k) -> k) plain));
  set "p50_ms.low" (per_round "low" 0.5);
  set "p99_ms.low" (per_round "low" 0.99);
  set "p50_ms.high" (per_round "high" 0.5);
  set "p99_ms.high" (per_round "high" 0.99);
  set "rss_mb" !rss;
  (* - per layer - *)
  let tier name = List.filter (fun (_, s) -> s.reply.tier = name) sent in
  let count_tier name = float_of_int (List.length (List.filter (fun (_, s) -> s.reply.tier = name) measured)) in
  let hits = count_tier "hit" and stores = count_tier "store" and misses = count_tier "miss" in
  set "cache.hit_ratio" (hits /. Float.max 1. (hits +. stores +. misses));
  set "store.hit_ratio" (stores /. Float.max 1. (stores +. misses));
  List.iter
    (fun name ->
      match tier name with
      | [] -> ()
      | xs -> set (Printf.sprintf "server.elapsed_ms.%s.p50" name) (median (List.map (fun (_, s) -> s.reply.elapsed_ms) xs)))
    [ "hit"; "store"; "miss" ];
  (* router, sockets and client: round trip minus the backend's own time,
     for hits at the low rate *)
  let overheads =
    List.concat_map
      (fun (p, _, items, (r : Loadgen.open_result)) ->
        if p <> "low" then []
        else
          List.concat
            (List.init (Array.length items) (fun i ->
                 let _, s = items.(i) in
                 if s.reply.tier = "hit" && Float.is_finite r.completed.(i) then
                   [ ((r.completed.(i) -. r.sent.(i)) *. 1e6) -. (s.reply.elapsed_ms *. 1e3) ]
                 else [])))
      !slices
  in
  if overheads <> [] then set "cluster.overhead_us.p50" (median overheads);
  let lags =
    List.concat_map
      (fun (_, _, _, (r : Loadgen.open_result)) ->
        Array.to_list (Array.mapi (fun i t -> (r.sent.(i) -. t) *. 1000.) r.intended))
      !slices
  in
  set "loadgen.sent" (float_of_int (List.length measured));
  set "loadgen.lag_p99_ms" (quantile 0.99 lags);
  set "loadgen.backlog_max"
    (float_of_int (List.fold_left (fun acc (_, _, _, (r : Loadgen.open_result)) -> max acc r.backlog_max) 0 !slices));
  let s = !scraped in
  set "server.requests" (s "etx_server_requests_total");
  set "server.shed" (s "etx_server_shed_total");
  set "cluster.failovers" (s "etx_cluster_failover_total");
  set "cluster.degraded" (s "etx_cluster_degraded_total");
  set "store.writes" (s "etx_store_writes_total");
  if traced then begin
    let sum_by f = List.fold_left (fun acc x -> acc +. f x) 0. !engine_runs in
    let count f = sum_by (fun (_, _, (_, m)) -> float_of_int (f m)) in
    set "engine.create_s" (sum_by (fun (c, _, _) -> c));
    set "engine.run_s" (sum_by (fun (_, r, _) -> r));
    Layers.router_share ~run_s:(sum_by (fun (_, r, _) -> r))
      (List.map (fun (_, _, (k, (m : Etx_etsim.Metrics.t))) -> (k.mesh, m.recomputations)) !engine_runs);
    set "engine.sims" (float_of_int (List.length !engine_runs));
    set "engine.frames" (count (fun (m : Etx_etsim.Metrics.t) -> m.frames));
    set "engine.recomputations" (count (fun (m : Etx_etsim.Metrics.t) -> m.recomputations));
    set "engine.acts" (count (fun (m : Etx_etsim.Metrics.t) -> m.acts_total));
    set "engine.hops" (count (fun (m : Etx_etsim.Metrics.t) -> m.hops_total));
    set "engine.retransmissions" (count (fun (m : Etx_etsim.Metrics.t) -> m.retransmissions));
    let traced_bursts = List.filter_map (fun (t, w, _) -> if t then Some w else None) !bursts in
    set "trace.overhead_frac" ((median traced_bursts /. median plain_bursts) -. 1.)
  end

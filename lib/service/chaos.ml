module Json = Etx_util.Json
module Prng = Etx_util.Prng

type config = {
  exe : string;
  backends : int;
  requests : int;
  events : int;
  seed : int;
  dir : string;
  mesh_size : int;
  supervise : bool;
  log : string -> unit;
}

let config ?(backends = 3) ?(requests = 12) ?(events = 6) ?(seed = 1) ?(mesh_size = 4)
    ?(supervise = false) ?(log = ignore) ~exe ~dir () =
  if backends < 1 then invalid_arg "Chaos.config: backends must be at least 1";
  if requests < 1 then invalid_arg "Chaos.config: requests must be at least 1";
  if events < 0 then invalid_arg "Chaos.config: events must be non-negative";
  { exe; backends; requests; events; seed; dir; mesh_size; supervise; log }

type outcome = {
  seed : int;
  completed : int;
  client_retries : int;
  kills : int;
  hangs : int;
  restarts : int;
  supervised_restarts : int;
  rolling_completed : int;
  store_served_after_restart : int;
  violations : string list;
}

(* - the request stream -

   Distinct seeds give every request a distinct fingerprint, so the
   durability phase can demand a store hit for each one. *)

let request_line (cfg : config) i =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int i);
         ("scenario", Json.String "simulate");
         ( "params",
           Json.Obj
             [ ("mesh_size", Json.Int cfg.mesh_size); ("seed", Json.Int (1000 + i)) ]
         );
       ])

(* - response dissection - *)

type parsed = {
  status : string;
  code : string;  (** error code, or "" when ok *)
  cache : string;  (** cache tier, or "" when absent *)
  result : string;  (** serialized [result] member bytes, or "" *)
}

let parse_response line =
  match Json.parse_result line with
  | Error reason -> Error (Printf.sprintf "unparseable response %S: %s" line reason)
  | Ok json ->
    let str key =
      match Json.member key json with Some (Json.String s) -> s | _ -> ""
    in
    let result =
      match Json.member "result" json with None -> "" | Some r -> Json.to_string r
    in
    Ok { status = str "status"; code = str "code"; cache = str "cache"; result }

(* - backend process control - *)

type proc = {
  index : int;
  socket : string;
  logfile : string;
  mutable pid : int;  (** -1 when dead *)
  mutable sigstopped : bool;
}

let store_dir (cfg : config) = Filename.concat cfg.dir "store"

let spawn (cfg : config) proc =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let logfd =
    Unix.openfile proc.logfile [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let args =
    [|
      cfg.exe; "serve"; "--socket"; proc.socket; "--jobs"; "1"; "--store";
      store_dir cfg;
    |]
  in
  let pid = Unix.create_process cfg.exe args devnull logfd logfd in
  Unix.close devnull;
  Unix.close logfd;
  proc.pid <- pid;
  proc.sigstopped <- false

let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill_proc proc =
  if proc.pid > 0 then begin
    if proc.sigstopped then (try Unix.kill proc.pid Sys.sigcont with Unix.Unix_error _ -> ());
    (try Unix.kill proc.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap proc.pid;
    proc.pid <- -1;
    proc.sigstopped <- false
  end

(* Ping one backend directly (bypassing the router) until it answers,
   so a phase never starts against daemons that are still binding. *)
let ping_until_ready ~socket ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let ping_line = {|{"id":"ready","scenario":"ping"}|} in
  let rec attempt () =
    let ok =
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.connect fd (Unix.ADDR_UNIX socket) with
          | exception Unix.Unix_error _ -> false
          | () -> (
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.;
            let oc = Unix.out_channel_of_descr fd in
            output_string oc (ping_line ^ "\n\n");
            flush oc;
            let ic = Unix.in_channel_of_descr fd in
            match input_line ic with
            | line -> String.length line > 0
            | exception (End_of_file | Unix.Unix_error _ | Sys_error _) -> false))
    in
    if ok then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.05;
      attempt ()
    end
  in
  attempt ()

let wait_ready proc = ping_until_ready ~socket:proc.socket ~timeout_s:15.

(* - chaos schedule -

   Runs in its own domain concurrently with the request stream.  The
   event sequence (which backend, which failure) is a pure function of
   the seed; only its interleaving with requests is up to the OS.  The
   schedule always ends by resuming and restarting everything, so the
   stream's bounded retries are guaranteed to drain. *)

type chaos_counts = { mutable kills : int; mutable hangs : int; mutable restarts : int }

let run_chaos ?(supervised = false) (cfg : config) procs counts =
  let rng = Prng.create ~seed:(cfg.seed * 2 + 1) in
  let pick pred =
    let candidates = Array.of_list (List.filter pred (Array.to_list procs)) in
    if Array.length candidates = 0 then None
    else Some candidates.(Prng.int rng ~bound:(Array.length candidates))
  in
  for _ = 1 to cfg.events do
    Unix.sleepf (0.03 +. Prng.float rng ~bound:0.09);
    let roll = Prng.float rng ~bound:1. in
    if roll < 0.45 then (
      match pick (fun p -> p.pid > 0 && not p.sigstopped) with
      | None -> ()
      | Some p ->
        cfg.log (Printf.sprintf "chaos: kill backend %d (pid %d)" p.index p.pid);
        (if supervised then begin
           (* SIGKILL without reaping: observing the exit, reaping and
              respawning is the supervisor's job *)
           (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
           p.sigstopped <- false
         end
         else kill_proc p);
        counts.kills <- counts.kills + 1)
    else if roll < 0.72 then (
      match pick (fun p -> p.pid > 0 && not p.sigstopped) with
      | None -> ()
      | Some p ->
        cfg.log (Printf.sprintf "chaos: hang backend %d (pid %d)" p.index p.pid);
        (try
           Unix.kill p.pid Sys.sigstop;
           p.sigstopped <- true;
           Unix.sleepf (0.05 +. Prng.float rng ~bound:0.15);
           Unix.kill p.pid Sys.sigcont;
           p.sigstopped <- false
         with Unix.Unix_error _ -> ());
        counts.hangs <- counts.hangs + 1)
    else if not supervised then (
      (* in supervised mode healing is the supervisor's job; the
         schedule burns the slot so kill/hang sequencing stays seeded *)
      match pick (fun p -> p.pid <= 0) with
      | None -> ()
      | Some p ->
        cfg.log (Printf.sprintf "chaos: restart backend %d" p.index);
        spawn cfg p;
        counts.restarts <- counts.restarts + 1)
  done;
  (* leave the cluster whole: resume every hung backend, restart every
     dead one (supervised: just wait for the supervisor to do it), and
     wait until each answers a ping again *)
  Array.iter
    (fun p ->
      if p.pid > 0 && p.sigstopped then begin
        (try Unix.kill p.pid Sys.sigcont with Unix.Unix_error _ -> ());
        p.sigstopped <- false
      end;
      if (not supervised) && p.pid <= 0 then begin
        cfg.log (Printf.sprintf "chaos: final restart of backend %d" p.index);
        spawn cfg p;
        counts.restarts <- counts.restarts + 1
      end;
      ignore (wait_ready p))
    procs

(* - the request stream with client-side retry -

   [degraded]/[retry_after_ms] responses are the cluster telling the
   client to come back; honoring that contract (with a bounded budget)
   is part of the property: every accepted request must eventually
   complete, bit-identically. *)

let retry_budget = 100

let drive_stream (cfg : config) cluster ~indices reference violations =
  let completed = ref 0 and client_retries = ref 0 in
  let pending = Queue.create () in
  List.iter (fun i -> Queue.add (i, retry_budget) pending) indices;
  while not (Queue.is_empty pending) do
    (* small batches so chaos events interleave with many dispatches *)
    let batch = ref [] in
    while not (Queue.is_empty pending) && List.length !batch < 3 do
      batch := Queue.pop pending :: !batch
    done;
    let batch = List.rev !batch in
    let lines = List.map (fun (i, _) -> request_line cfg i) batch in
    let replies = Cluster.handle_batch cluster lines in
    let retry_wanted = ref false in
    List.iter2
      (fun (i, budget) reply ->
        match parse_response reply with
        | Error what -> violations := what :: !violations
        | Ok { status = "ok"; result; _ } ->
          if String.equal result reference.(i) then incr completed
          else
            violations :=
              Printf.sprintf "request %d: result diverged from single-daemon run" i
              :: !violations
        | Ok { code = "degraded"; _ } ->
          if budget <= 1 then
            violations :=
              Printf.sprintf "request %d: lost (retry budget exhausted while degraded)"
                i
              :: !violations
          else begin
            incr client_retries;
            retry_wanted := true;
            Queue.add (i, budget - 1) pending
          end
        | Ok { code; _ } ->
          violations :=
            Printf.sprintf "request %d: unexpected error code %S in %s" i code reply
            :: !violations)
      batch replies;
    if !retry_wanted then Unix.sleepf 0.05
  done;
  (!completed, !client_retries)

(* - reference run: one in-process daemon, no store, no chaos - *)

let reference_results (cfg : config) ~count =
  let server =
    Server.create
      { Server.default_config with queue_depth = max 64 count; domains = 1 }
  in
  Fun.protect
    ~finally:(fun () -> Server.shutdown server)
    (fun () ->
      let lines = List.init count (request_line cfg) in
      let replies = Server.handle_batch server lines in
      Array.of_list
        (List.map
           (fun reply ->
             match parse_response reply with
             | Ok { status = "ok"; result; _ } -> result
             | Ok _ | Error _ ->
               failwith ("chaos: reference run failed on " ^ reply))
           replies))

let cluster_config (cfg : config) procs =
  {
    (Cluster.default_config
       ~backends:(Array.to_list (Array.map (fun p -> p.socket) procs)))
    with
    attempts = cfg.backends + 2;
    connect_timeout_s = 0.5;
    request_timeout_s = 5.;
    probe_timeout_s = 0.5;
    health_period_s = 0.25;
    failure_threshold = 2;
    breaker_cooldown_s = 0.3;
    backoff_base_ms = 10.;
    backoff_cap_ms = 80.;
    seed = cfg.seed;
    queue_depth = max 64 cfg.requests;
    retry_after_ms = 40;
  }

let make_procs (cfg : config) =
  (try Unix.mkdir cfg.dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Array.init cfg.backends (fun index ->
      {
        index;
        socket = Filename.concat cfg.dir (Printf.sprintf "b%d.sock" index);
        logfile = Filename.concat cfg.dir (Printf.sprintf "b%d.log" index);
        pid = -1;
        sigstopped = false;
      })

(* durability phase: cold-restart the whole cluster, then demand every
   result back from the shared store without recompute *)
let cold_restart_durability (cfg : config) procs ~count reference violations =
  let violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  cfg.log "chaos: killing and cold-restarting every backend";
  Array.iter kill_proc procs;
  Array.iter (fun p -> spawn cfg p) procs;
  Array.iter
    (fun p ->
      if not (wait_ready p) then
        violation "backend %d never became ready after cold restart" p.index)
    procs;
  let store_served = ref 0 in
  if !violations = [] then begin
    let cluster = Cluster.create (cluster_config cfg procs) in
    let lines = List.init count (request_line cfg) in
    let replies = Cluster.handle_batch cluster lines in
    List.iteri
      (fun i reply ->
        match parse_response reply with
        | Error what -> violations := what :: !violations
        | Ok { status = "ok"; cache = "store"; result; _ } ->
          if String.equal result reference.(i) then incr store_served
          else violation "request %d: store bytes diverged after cold restart" i
        | Ok { status = "ok"; cache; _ } ->
          violation
            "request %d: recomputed after cold restart (cache %S, wanted \
             \"store\")"
            i cache
        | Ok { code; _ } ->
          violation "request %d: error %S after cold restart" i code)
      replies
  end;
  !store_served

let run_manual (cfg : config) =
  let violations = ref [] in
  let violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let procs = make_procs cfg in
  Fun.protect
    ~finally:(fun () -> Array.iter kill_proc procs)
    (fun () ->
      cfg.log "chaos: computing reference results (single daemon, no chaos)";
      let reference = reference_results cfg ~count:cfg.requests in
      cfg.log (Printf.sprintf "chaos: starting %d backends" cfg.backends);
      Array.iter (fun p -> spawn cfg p) procs;
      Array.iter
        (fun p ->
          if not (wait_ready p) then
            violation "backend %d never became ready" p.index)
        procs;
      let counts = { kills = 0; hangs = 0; restarts = 0 } in
      let completed, client_retries =
        if !violations <> [] then (0, 0)
        else begin
          let cluster = Cluster.create (cluster_config cfg procs) in
          let chaos = Domain.spawn (fun () -> run_chaos cfg procs counts) in
          let stream =
            try
              Ok
                (drive_stream cfg cluster
                   ~indices:(List.init cfg.requests Fun.id)
                   reference violations)
            with e -> Error e
          in
          Domain.join chaos;
          match stream with Ok r -> r | Error e -> raise e
        end
      in
      let store_served =
        cold_restart_durability cfg procs ~count:cfg.requests reference
          violations
      in
      {
        seed = cfg.seed;
        completed;
        client_retries;
        kills = counts.kills;
        hangs = counts.hangs;
        restarts = counts.restarts;
        supervised_restarts = 0;
        rolling_completed = 0;
        store_served_after_restart = store_served;
        violations = List.rev !violations;
      })

(* - supervised mode -

   The chaos schedule only wounds (SIGKILL without reap, SIGSTOP); a
   Supervisor domain heals: it reaps exits and respawns with per-child
   decorrelated-jitter backoff while the stream keeps routing.  Then a
   rolling restart — graceful drain and resume of each backend in turn
   — runs concurrently with a second request stream over fresh
   fingerprints, and must lose nothing and never escalate to SIGKILL. *)

let run_supervised (cfg : config) =
  let violations = ref [] in
  let violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let procs = make_procs cfg in
  let sup_cfg =
    {
      (Supervisor.default_config ~children:cfg.backends) with
      backoff_base_ms = 20.;
      backoff_cap_ms = 250.;
      seed = cfg.seed;
      (* chaos kills land seconds apart at most: treat any uptime as
         stable so the seeded schedule cannot escalate delays unboundedly *)
      stable_after_s = 0.5;
      drain_grace_s = 10.;
      ready_timeout_s = 15.;
    }
  in
  let sup =
    Supervisor.create
      (Supervisor.unix_ops
         ~spawn:(fun i ->
           spawn cfg procs.(i);
           procs.(i).pid)
         ~ready:(fun i -> ping_until_ready ~socket:procs.(i).socket ~timeout_s:0.2)
         ~log:cfg.log ())
      sup_cfg
  in
  Fun.protect
    ~finally:(fun () ->
      Supervisor.stop_all sup;
      Array.iter kill_proc procs)
    (fun () ->
      let total = 2 * cfg.requests in
      cfg.log "chaos: computing reference results (single daemon, no chaos)";
      let reference = reference_results cfg ~count:total in
      cfg.log
        (Printf.sprintf "chaos: starting %d supervised backends" cfg.backends);
      Supervisor.start sup;
      Array.iter
        (fun p ->
          if not (wait_ready p) then
            violation "backend %d never became ready" p.index)
        procs;
      let counts = { kills = 0; hangs = 0; restarts = 0 } in
      let completed = ref 0
      and client_retries = ref 0
      and rolling_completed = ref 0
      and rolling_ok = ref true in
      if !violations = [] then begin
        let cluster = Cluster.create (cluster_config cfg procs) in
        let stop_sup = Atomic.make false in
        let sup_dom =
          Domain.spawn (fun () ->
              Supervisor.run sup ~period_s:0.03 ~stop:(fun () ->
                  Atomic.get stop_sup))
        in
        Fun.protect
          ~finally:(fun () ->
            Atomic.set stop_sup true;
            Domain.join sup_dom)
          (fun () ->
            (* phase 1: kills and hangs under supervision *)
            let chaos =
              Domain.spawn (fun () ->
                  run_chaos ~supervised:true cfg procs counts)
            in
            let stream =
              try
                Ok
                  (drive_stream cfg cluster
                     ~indices:(List.init cfg.requests Fun.id)
                     reference violations)
              with e -> Error e
            in
            Domain.join chaos;
            (match stream with
            | Ok (c, r) ->
              completed := c;
              client_retries := r
            | Error e -> raise e);
            (* phase 2: rolling restart under a fresh request stream *)
            cfg.log "chaos: rolling restart under load";
            let roller = Domain.spawn (fun () -> Supervisor.rolling_restart sup) in
            let stream2 =
              try
                Ok
                  (drive_stream cfg cluster
                     ~indices:
                       (List.init cfg.requests (fun i -> cfg.requests + i))
                     reference violations)
              with e -> Error e
            in
            rolling_ok := Domain.join roller;
            match stream2 with
            | Ok (c, r) ->
              rolling_completed := c;
              client_retries := !client_retries + r
            | Error e -> raise e)
      end;
      if not !rolling_ok then
        violation
          "rolling restart was not graceful (a drain escalated or a backend \
           failed to come back ready)";
      if Supervisor.forced_kills_total sup > 0 then
        violation "drain escalated to SIGKILL %d time(s)"
          (Supervisor.forced_kills_total sup);
      let supervised_restarts = Supervisor.restarts_total sup in
      (* stop supervision before the cold restart so it cannot heal the
         deliberate kill *)
      Supervisor.stop_all sup;
      Array.iter (fun p -> p.sigstopped <- false) procs;
      let store_served =
        cold_restart_durability cfg procs ~count:total reference violations
      in
      {
        seed = cfg.seed;
        completed = !completed;
        client_retries = !client_retries;
        kills = counts.kills;
        hangs = counts.hangs;
        restarts = counts.restarts;
        supervised_restarts;
        rolling_completed = !rolling_completed;
        store_served_after_restart = store_served;
        violations = List.rev !violations;
      })

let run (cfg : config) =
  (* the in-process router writes to backends this harness kills: a
     write racing a kill must fail over (EPIPE), not end the harness
     silently with SIGPIPE and orphan the surviving backends *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  if cfg.supervise then run_supervised cfg else run_manual cfg

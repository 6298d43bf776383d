module Json = Etx_util.Json
module Backoff = Etx_util.Backoff
module Obs = Etx_obs.Obs
module Span = Etx_obs.Span
module Expo = Etx_obs.Expo

type config = {
  backends : string list;
  replicas : int;
  attempts : int;
  connect_timeout_s : float;
  request_timeout_s : float;
  probe_timeout_s : float;
  health_period_s : float;
  failure_threshold : int;
  breaker_cooldown_s : float;
  backoff_base_ms : float;
  backoff_cap_ms : float;
  seed : int;
  queue_depth : int;
  retry_after_ms : int;
  forward_shutdown : bool;
  metrics_file : string option;
  metrics_every_s : float;
}

let default_config ~backends =
  {
    backends;
    replicas = 64;
    attempts = 4;
    connect_timeout_s = 1.;
    request_timeout_s = 30.;
    probe_timeout_s = 1.;
    health_period_s = 2.;
    failure_threshold = 3;
    breaker_cooldown_s = 5.;
    backoff_base_ms = 25.;
    backoff_cap_ms = 1000.;
    seed = 0;
    queue_depth = 64;
    retry_after_ms = 250;
    forward_shutdown = false;
    metrics_file = None;
    metrics_every_s = 5.;
  }

let obs_requests =
  Obs.counter ~help:"Request lines received by the router (malformed included)"
    "etx_cluster_requests_total"

let obs_responses =
  Obs.counter ~help:"Response lines the router wrote back"
    "etx_cluster_responses_total"

let obs_routed =
  Obs.counter ~help:"Scenario requests dispatched toward a backend"
    "etx_cluster_routed_total"

let obs_failover =
  Obs.counter ~help:"Retries against a different candidate after a failure"
    "etx_cluster_failover_total"

let obs_shed =
  Obs.counter ~help:"Scenario requests shed by fair admission"
    "etx_cluster_shed_total"

let obs_degraded =
  Obs.counter ~help:"Degraded (retryable) error responses"
    "etx_cluster_degraded_total"

let obs_deadline =
  Obs.counter ~help:"Requests whose deadline expired while routing"
    "etx_cluster_deadline_exceeded_total"

let obs_errors =
  Obs.counter ~help:"Error responses of any kind" "etx_cluster_errors_total"

let obs_probe result =
  Obs.counter ~help:"Health probes by outcome" ~labels:[ ("result", result) ]
    "etx_cluster_probes_total"

let obs_probe_ok = obs_probe "ok"
let obs_probe_fail = obs_probe "fail"

type rpc = path:string -> timeout_s:float -> string -> (string, string) result

(* One client batch awaiting its forwarded responses: answered when the
   last slot fills. *)
type block = {
  responses : string array;
  mutable missing : int;
  answer : string list -> unit;
}

(* One routed scenario request: which candidate, which attempt, until
   when, and the client slot it answers. *)
type dispatch = {
  block : block;
  slot : int;
  id : Json.t;
  deadline_ms : int option;
  deadline_abs : float option;
  line : string;  (* the bytes forwarded *)
  candidates : backend array;  (* ring preference order *)
  serial : int;  (* seeds this request's backoff *)
  mutable attempt : int;
  mutable last_error : string option;
  mutable backoff : Backoff.t option;  (* drawn on the first failure *)
  mutable on_wire : bool;  (* awaiting a backend reply *)
  mutable answered : bool;
  route_span : Span.opened option;  (* cluster.route: arrival to answer *)
  mutable dispatch_span : Span.opened option;  (* cluster.dispatch: send to reply *)
}

and backend = {
  name : string;
  health : Health.t;
  breaker : Breaker.t;
  obs_dispatched : Obs.counter;
  obs_failures : Obs.counter;
  obs_inflight : Obs.gauge;
  mutable last_heard : float;  (* last success or probe attempt *)
  mutable dispatched : int;
  mutable transport_failures : int;
  mutable link : link option;
}

(* The persistent, pipelined connection to one backend.  A backend
   answers each connection in order, so replies match [inflight] FIFO,
   and only the head is being worked on: its clock starts when it
   becomes the head, not when it was queued. *)
and link = {
  fd : Unix.file_descr;
  rd : Netio.reader;
  wr : Netio.writer;
  inflight : entry Queue.t;
  mutable head_since : float;
}

and entry = { mutable waiting : waiting; mutable timeout_s : float }

and waiting =
  | Reply of dispatch  (* answered early (deadline): the reply is dropped *)
  | Probe
  | Ignore  (* a forwarded shutdown, or a probe already counted as failed *)

(* backoff waits and deadlines, by due time; the int keeps keys unique *)
module Timers = Map.Make (struct
  type t = float * int

  let compare = compare
end)

type t = {
  cfg : config;
  ring : Ring.t;
  table : (string, backend) Hashtbl.t;
  order : backend list;  (* config order, for stats and probes *)
  now : unit -> float;
  sleep : float -> unit;
  rpc : rpc option;  (* each send completes inside the call *)
  validated : unit Cache.t;  (* keys whose parameters already validated *)
  mutable timers : dispatch Timers.t;
  mutable timer_seq : int;
  mutable routed_total : int;
  mutable failover_total : int;
  mutable shed_total : int;
  mutable degraded_total : int;
  mutable deadline_exceeded_total : int;
  mutable errors_total : int;
  mutable probe_total : int;
  mutable probe_failures : int;
  mutable stopping : bool;
}

(* - construction - *)

(* Bounded set of keys the router has validated: a repeated key skips
   building its configuration.  Small on purpose — a miss only costs one
   validation, while every entry is resident for the router's life. *)
let validated_capacity = 256

let create ?(now = Unix.gettimeofday) ?(sleep = Unix.sleepf) ?rpc cfg =
  if cfg.backends = [] then invalid_arg "Cluster.create: need at least one backend";
  if List.length (List.sort_uniq compare cfg.backends) <> List.length cfg.backends
  then invalid_arg "Cluster.create: duplicate backends";
  if cfg.attempts < 1 then invalid_arg "Cluster.create: attempts must be >= 1";
  if cfg.queue_depth < 1 then invalid_arg "Cluster.create: queue_depth must be >= 1";
  if
    cfg.connect_timeout_s <= 0. || cfg.request_timeout_s <= 0.
    || cfg.probe_timeout_s <= 0. || cfg.health_period_s <= 0.
  then invalid_arg "Cluster.create: timeouts must be positive";
  if not (cfg.backoff_base_ms > 0. && cfg.backoff_base_ms <= cfg.backoff_cap_ms)
  then invalid_arg "Cluster.create: need 0 < backoff_base_ms <= backoff_cap_ms";
  if not (cfg.metrics_every_s > 0.) then
    invalid_arg "Cluster.create: metrics_every_s must be > 0";
  let table = Hashtbl.create 8 in
  let order =
    List.map
      (fun name ->
        let labels = [ ("backend", name) ] in
        let b =
          {
            name;
            health =
              Health.create ~failure_threshold:cfg.failure_threshold
                ~obs_label:name ();
            breaker =
              Breaker.create ~failure_threshold:cfg.failure_threshold
                ~cooldown_s:cfg.breaker_cooldown_s ~obs_label:name ~now ();
            obs_dispatched =
              Obs.counter ~help:"Requests dispatched per backend" ~labels
                "etx_cluster_backend_dispatched_total";
            obs_failures =
              Obs.counter ~help:"Transport failures per backend" ~labels
                "etx_cluster_backend_failures_total";
            obs_inflight =
              Obs.gauge ~help:"Requests awaiting a reply per backend" ~labels
                "etx_cluster_backend_inflight";
            (* never heard from: due for a probe immediately *)
            last_heard = neg_infinity;
            dispatched = 0;
            transport_failures = 0;
            link = None;
          }
        in
        Hashtbl.replace table name b;
        b)
      cfg.backends
  in
  {
    cfg;
    ring = Ring.create ~replicas:cfg.replicas cfg.backends;
    table;
    order;
    now;
    sleep;
    rpc;
    validated = Cache.create ~capacity:validated_capacity;
    timers = Timers.empty;
    timer_seq = 0;
    routed_total = 0;
    failover_total = 0;
    shed_total = 0;
    degraded_total = 0;
    deadline_exceeded_total = 0;
    errors_total = 0;
    probe_total = 0;
    probe_failures = 0;
    stopping = false;
  }

let record_success t b =
  Health.record_success b.health;
  Breaker.record_success b.breaker;
  b.last_heard <- t.now ()

let record_failure t b =
  Health.record_failure b.health;
  Breaker.record_failure b.breaker;
  b.transport_failures <- b.transport_failures + 1;
  Obs.inc b.obs_failures;
  b.last_heard <- t.now ()

let inflight b =
  match b.link with None -> 0 | Some l -> Queue.length l.inflight

let idle b = inflight b = 0

(* - responses - *)

let error_response ?(extra = []) id code message =
  Json.to_string
    (Json.Obj
       ([
          ("id", id);
          ("status", Json.String "error");
          ("error", Json.String code);
          ("message", Json.String message);
        ]
       @ extra))

let count_error t =
  t.errors_total <- t.errors_total + 1;
  Obs.inc obs_errors

let degraded_response t id message =
  t.degraded_total <- t.degraded_total + 1;
  count_error t;
  Obs.inc obs_degraded;
  error_response
    ~extra:[ ("retry_after_ms", Json.Int t.cfg.retry_after_ms) ]
    id "degraded" message

let ok_response ~scenario ~elapsed_ms id result =
  Json.to_string
    (Json.Obj
       [
         ("id", id);
         ("status", Json.String "ok");
         ("scenario", Json.String scenario);
         ("elapsed_ms", Json.float_lenient elapsed_ms);
         ("result", result);
       ])

let backend_stats t =
  Json.Obj
    (List.map
       (fun b ->
         ( b.name,
           Json.Obj
             [
               ("health", Json.String (Health.state_name (Health.state b.health)));
               ("breaker", Json.String (Breaker.state_name (Breaker.state b.breaker)));
               ( "consecutive_failures",
                 Json.Int (Health.consecutive_failures b.health) );
               ("dispatched", Json.Int b.dispatched);
               ("inflight", Json.Int (inflight b));
               ("transport_failures", Json.Int b.transport_failures);
               ("breaker_opened_total", Json.Int (Breaker.opened_total b.breaker));
               ("health_transitions", Json.Int (Health.transitions b.health));
             ] ))
       t.order)

let stats_json t =
  Json.Obj
    [
      ("role", Json.String "cluster-router");
      ("backends", backend_stats t);
      ("routed_total", Json.Int t.routed_total);
      ("failover_total", Json.Int t.failover_total);
      ("shed_total", Json.Int t.shed_total);
      ("degraded_total", Json.Int t.degraded_total);
      ("deadline_exceeded_total", Json.Int t.deadline_exceeded_total);
      ("errors_total", Json.Int t.errors_total);
      ("probe_total", Json.Int t.probe_total);
      ("probe_failures", Json.Int t.probe_failures);
      ("queue_depth", Json.Int t.cfg.queue_depth);
      ("attempts", Json.Int t.cfg.attempts);
    ]

(* - backend connections - *)

let ping_line = {|{"scenario":"ping"}|}
let shutdown_line = {|{"scenario":"shutdown"}|}

let connect t b =
  match b.link with
  | Some l -> Ok l
  | None -> (
    match
      Netio.connect ~deadline:(t.now () +. t.cfg.connect_timeout_s) ~now:t.now
        b.name
    with
    | Error msg -> Error (Printf.sprintf "%s: %s" b.name msg)
    | Ok fd ->
      let l =
        {
          fd;
          rd = Netio.reader fd;
          wr = Netio.writer fd;
          inflight = Queue.create ();
          head_since = t.now ();
        }
      in
      b.link <- Some l;
      Ok l)

let set_inflight b l = Obs.set b.obs_inflight (float_of_int (Queue.length l.inflight))

let probe_failed t =
  t.probe_failures <- t.probe_failures + 1;
  Obs.inc obs_probe_fail

(* - dispatch with failover - *)

(* first candidate from [attempt] onwards (cycling) whose breaker admits
   a request right now; half-open probe slots are consumed only by the
   candidate actually chosen *)
let pick_candidate candidates attempt =
  let n = Array.length candidates in
  let rec go j =
    if j = n then None
    else
      let b = candidates.((attempt + j) mod n) in
      if Breaker.allow b.breaker then Some b else go (j + 1)
  in
  go 0

let remaining t d =
  match d.deadline_abs with None -> infinity | Some dl -> dl -. t.now ()

let complete block =
  Obs.add obs_responses (Array.length block.responses);
  block.answer (Array.to_list block.responses)

let fill d line =
  d.answered <- true;
  Span.finish d.route_span;
  d.block.responses.(d.slot) <- line;
  d.block.missing <- d.block.missing - 1;
  if d.block.missing = 0 then complete d.block

let expire t d =
  t.deadline_exceeded_total <- t.deadline_exceeded_total + 1;
  count_error t;
  Obs.inc obs_deadline;
  fill d
    (error_response d.id "deadline_exceeded"
       (Printf.sprintf "deadline of %d ms expired while routing"
          (Option.value d.deadline_ms ~default:0)))

let schedule t due d =
  t.timer_seq <- t.timer_seq + 1;
  t.timers <- Timers.add (due, t.timer_seq) d t.timers

let off_wire d =
  d.on_wire <- false;
  Span.finish d.dispatch_span;
  d.dispatch_span <- None

(* A backend's reply to one sent entry. *)
let replied t b waiting line =
  record_success t b;
  match waiting with
  | Reply d ->
    off_wire d;
    if not d.answered then fill d line
  | Probe -> Obs.inc obs_probe_ok
  | Ignore -> ()

let rec attempt t d =
  if d.attempt >= t.cfg.attempts then
    fill d
      (degraded_response t d.id
         (Printf.sprintf "no backend answered after %d attempt(s)%s"
            t.cfg.attempts
            (match d.last_error with None -> "" | Some e -> ": last error: " ^ e)))
  else if remaining t d <= 0. then expire t d
  else
    match pick_candidate d.candidates d.attempt with
    | None ->
      fill d
        (degraded_response t d.id
           (Printf.sprintf "all %d backend breaker(s) open"
              (Array.length d.candidates)))
    | Some b ->
      if d.attempt > 0 then begin
        t.failover_total <- t.failover_total + 1;
        Obs.inc obs_failover
      end;
      b.dispatched <- b.dispatched + 1;
      Obs.inc b.obs_dispatched;
      d.dispatch_span <- Span.child d.route_span "cluster.dispatch";
      send t b (Reply d) d.line

(* The one send path.  With an injected [rpc] the reply or failure is
   handled inside the call; otherwise the line is queued on the
   backend's connection (written by [flush_links]) and its reply
   matched FIFO by [read_link]. *)
and send t b waiting line =
  let timeout_s =
    match waiting with Reply _ -> t.cfg.request_timeout_s | _ -> t.cfg.probe_timeout_s
  in
  match t.rpc with
  | Some rpc -> (
    let timeout_s =
      match waiting with
      | Reply d -> Float.min timeout_s (remaining t d)
      | _ -> timeout_s
    in
    match rpc ~path:b.name ~timeout_s line with
    | Ok reply -> replied t b waiting reply
    | Error message -> failed t b [ waiting ] message)
  | None -> (
    match connect t b with
    | Error message -> failed t b [ waiting ] message
    | Ok l ->
      Netio.queue l.wr line;
      Netio.queue l.wr "\n\n";
      if Queue.is_empty l.inflight then l.head_since <- t.now ();
      Queue.push { waiting; timeout_s } l.inflight;
      (match waiting with Reply d -> d.on_wire <- true | Probe | Ignore -> ());
      set_inflight b l)

(* Entries lost with their connection, or never sent: one transport
   failure for the lot, and every unanswered request moves on. *)
and failed t b waitings message =
  if List.exists (function Ignore -> false | Reply _ | Probe -> true) waitings then
    record_failure t b;
  List.iter
    (function
      | Reply d ->
        off_wire d;
        if not d.answered then retry t d message
      | Probe -> probe_failed t
      | Ignore -> ())
    waitings

(* pace the next attempt with this request's own backoff; a deadline
   falling first is its own timer *)
and retry t d message =
  d.last_error <- Some message;
  d.attempt <- d.attempt + 1;
  let backoff =
    match d.backoff with
    | Some b -> b
    | None ->
      let b =
        Backoff.create ~base_ms:t.cfg.backoff_base_ms ~cap_ms:t.cfg.backoff_cap_ms
          ~seed:(t.cfg.seed + d.serial) ()
      in
      d.backoff <- Some b;
      b
  in
  let delay_s = Backoff.next backoff /. 1000. in
  if remaining t d > 0. then schedule t (t.now () +. delay_s) d else attempt t d

(* a due timer: a backoff wait ends, or a deadline passes *)
let fire t d =
  if d.answered then ()
  else if d.on_wire then (if remaining t d <= 0. then expire t d)
  else attempt t d

(* Close a backend connection and move everything in flight on it to its
   next candidate.  Closing a connection with nothing awaited on it (a
   backend that restarted or drained) is not a failure. *)
let drop_link t b l reason =
  (try Unix.close l.fd with Unix.Unix_error _ -> ());
  b.link <- None;
  Obs.set b.obs_inflight 0.;
  failed t b
    (List.of_seq (Seq.map (fun e -> e.waiting) (Queue.to_seq l.inflight)))
    (Printf.sprintf "%s: %s" b.name reason)

let flush_link t b l =
  match Netio.flush_some l.wr with
  | () -> ()
  | exception Unix.Unix_error (err, _, _) -> drop_link t b l (Unix.error_message err)
  | exception Sys_error message -> drop_link t b l message

let flush_links t =
  List.iter
    (fun b ->
      match b.link with
      | Some l when Netio.queued l.wr > 0 -> flush_link t b l
      | _ -> ())
    t.order

(* one read, then every complete reply, matched FIFO; the next head's
   clock starts as its predecessor's reply arrives *)
let read_link t b l =
  match Netio.fill l.rd with
  | exception Unix.Unix_error (err, _, _) -> drop_link t b l (Unix.error_message err)
  | exception Sys_error message -> drop_link t b l message
  | `Again -> ()
  | (`Data | `Eof) as got ->
    let rec replies () =
      match Netio.take_line l.rd with
      | None -> ()
      | Some line ->
        (match Queue.take_opt l.inflight with
        | None -> ()
        | Some e ->
          l.head_since <- t.now ();
          replied t b e.waiting line);
        replies ()
    in
    replies ();
    set_inflight b l;
    if got = `Eof then drop_link t b l "connection closed"

(* - health probes - *)

let probe_backend t b =
  t.probe_total <- t.probe_total + 1;
  b.last_heard <- t.now ();
  send t b Probe ping_line

(* a backend with requests in flight is heard from by their replies (or
   their timeout), so only a quiet one is pinged *)
let probe t =
  List.iter
    (fun b ->
      if idle b && t.now () -. b.last_heard >= t.cfg.health_period_s then
        probe_backend t b)
    t.order

(* - timed work - *)

let head_due l =
  match Queue.peek_opt l.inflight with
  | None -> infinity
  | Some e -> l.head_since +. e.timeout_s

(* Only a connection's head can be late.  A late request closes the
   connection; a late probe only counts against the backend's health —
   the requests behind it keep their connection, and its reply, when it
   comes, is dropped. *)
let expire_head t b l now =
  (* a reply may be waiting unread: take it before giving up *)
  read_link t b l;
  match b.link with
  | Some l' when l' == l && head_due l <= now -> (
    let e = Queue.peek l.inflight in
    match e.waiting with
    | Probe ->
      probe_failed t;
      record_failure t b;
      e.waiting <- Ignore;
      e.timeout_s <- t.cfg.request_timeout_s
    | Reply _ | Ignore -> drop_link t b l "response timed out")
  | _ -> ()

let tick t =
  let now = t.now () in
  List.iter
    (fun b ->
      match b.link with
      | Some l when head_due l <= now -> expire_head t b l now
      | _ -> ())
    t.order;
  let rec run_due () =
    match Timers.min_binding_opt t.timers with
    | Some (((due, _) as key), d) when due <= now ->
      t.timers <- Timers.remove key t.timers;
      fire t d;
      run_due ()
    | _ -> ()
  in
  run_due ();
  probe t;
  flush_links t;
  let next =
    List.fold_left
      (fun next b ->
        Float.min next
          (match b.link with
          | Some l when not (Queue.is_empty l.inflight) -> head_due l
          | _ -> b.last_heard +. t.cfg.health_period_s))
      (match Timers.min_binding_opt t.timers with
      | Some ((due, _), _) -> due
      | None -> infinity)
      t.order
  in
  Float.max 0. (next -. t.now ())

let watch t =
  List.fold_left
    (fun (reads, writes) b ->
      match b.link with
      | None -> (reads, writes)
      | Some l ->
        (l.fd :: reads, if Netio.queued l.wr > 0 then l.fd :: writes else writes))
    ([], []) t.order

let ready t reads writes =
  List.iter
    (fun b ->
      match b.link with
      | Some l when List.mem l.fd reads -> read_link t b l
      | _ -> ())
    t.order;
  List.iter
    (fun b ->
      match b.link with
      | Some l when List.mem l.fd writes -> flush_link t b l
      | _ -> ())
    t.order

(* - batches - *)

type item = Parsed of Request.t | Malformed of Request.error

(* Splice a freshly minted trace id into a raw request line, right after
   the opening brace, so the backend sees it without the router
   re-serializing the request (key order, duplicate keys and number
   spellings all survive untouched).  Only called on lines that already
   parsed as objects; runs only while the registry is armed, so the
   disarmed router forwards request bytes verbatim. *)
let inject_trace_id line trace_id =
  match String.index_opt line '{' with
  | None -> line
  | Some i ->
    let rest = String.sub line (i + 1) (String.length line - i - 1) in
    let sep = if String.trim rest = "}" then "" else "," in
    Printf.sprintf "%s\"trace_id\":%s%s%s"
      (String.sub line 0 (i + 1))
      (Json.to_string (Json.String trace_id))
      sep rest

(* per-client round-robin admission: iterate arrival order repeatedly,
   admitting at most one request per client per round, until the depth
   is reached — so one chatty client cannot starve the rest *)
let fair_admit ~depth scenarios =
  let admitted = Hashtbl.create 8 in
  let remaining = Queue.create () in
  List.iter (fun x -> Queue.add x remaining) scenarios;
  let taken = ref 0 in
  let progress = ref true in
  while !taken < depth && !progress && not (Queue.is_empty remaining) do
    progress := false;
    let round = Queue.length remaining in
    let this_round = Hashtbl.create 8 in
    for _ = 1 to round do
      let ((idx, (req : Request.t)) as entry) = Queue.pop remaining in
      if !taken < depth && not (Hashtbl.mem this_round req.client) then begin
        Hashtbl.replace this_round req.client ();
        Hashtbl.replace admitted idx ();
        incr taken;
        progress := true
      end
      else Queue.add entry remaining
    done
  done;
  admitted


let submit t lines answer =
  probe t;
  let batch_start = t.now () in
  let raw_lines = Array.of_list lines in
  let items =
    Array.map
      (fun line ->
        match Request.of_line line with
        | Ok req -> Parsed req
        | Error err -> Malformed err)
      raw_lines
  in
  (* a response is either JSON built locally or a backend's line
     forwarded byte-for-byte (never re-parsed, never re-printed); the
     extra count held in [missing] keeps the block open until every
     request has been handed out *)
  let block =
    { responses = Array.make (Array.length items) ""; missing = 1; answer }
  in
  let responses = block.responses in
  Obs.add obs_requests (Array.length items);
  let runnable = ref [] in
  let scenarios = ref [] in
  Array.iteri
    (fun idx item ->
      match item with
      | Malformed err ->
        count_error t;
        responses.(idx) <- error_response err.error_id err.error_code err.reason
      | Parsed (req : Request.t) -> (
        runnable := (idx, req) :: !runnable;
        match req.body with
        | Request.Scenario _ -> scenarios := (idx, req) :: !scenarios
        | Request.Control _ -> ()))
    items;
  let admitted = fair_admit ~depth:t.cfg.queue_depth (List.rev !scenarios) in
  (* shed everything not admitted before doing any work *)
  List.iter
    (fun (idx, (req : Request.t)) ->
      if not (Hashtbl.mem admitted idx) then begin
        t.shed_total <- t.shed_total + 1;
        Obs.inc obs_shed;
        responses.(idx) <-
          degraded_response t req.id
            (Printf.sprintf
               "cluster saturated: %d scenario request(s) admitted this batch"
               t.cfg.queue_depth)
      end)
    (List.rev !scenarios);
  let order =
    List.stable_sort
      (fun (_, (a : Request.t)) (_, (b : Request.t)) ->
        compare b.priority a.priority)
      (List.rev !runnable)
  in
  List.iter
    (fun (idx, (req : Request.t)) ->
      match req.body with
      | Request.Control control ->
        let t0 = t.now () in
        let name = Request.scenario_name req.body in
        let result =
          match control with
          | Request.Ping -> Json.String "pong"
          | Request.Stats -> stats_json t
          | Request.Metrics Request.Metrics_json -> Expo.json ()
          | Request.Metrics Request.Metrics_prometheus ->
            Json.String (Expo.prometheus ())
          | Request.Shutdown ->
            t.stopping <- true;
            (* queued behind whatever is in flight, which the backend
               answers first *)
            if t.cfg.forward_shutdown then
              List.iter (fun b -> send t b Ignore shutdown_line) t.order;
            Json.String "stopping"
        in
        let elapsed_ms = (t.now () -. t0) *. 1000. in
        responses.(idx) <- ok_response ~scenario:name ~elapsed_ms req.id result
      | Request.Scenario scenario ->
        if Hashtbl.mem admitted idx then begin
          (* invalid requests are answered here and never dispatched;
             a key validated before skips building its configuration *)
          let key = Handlers.key scenario in
          match
            if Option.is_some (Cache.find t.validated key) then Ok key
            else
              try Handlers.fingerprint scenario
              with exn -> Error (Printexc.to_string exn)
          with
          | Error message ->
            count_error t;
            responses.(idx) <- error_response req.id "invalid_request" message
          | Ok _ ->
            Cache.add t.validated key ();
            t.routed_total <- t.routed_total + 1;
            Obs.inc obs_routed;
            (* the front door mints the trace id: a request arriving
               without one gets one spliced into the forwarded bytes.
               Disarmed, the line is forwarded verbatim — the chaos
               harness's byte-identity contract is untouched. *)
            let line, trace =
              if Obs.enabled () then
                match req.trace_id with
                | Some tid -> (raw_lines.(idx), Some tid)
                | None ->
                  let tid = Span.new_trace_id () in
                  (inject_trace_id raw_lines.(idx) tid, Some tid)
              else (raw_lines.(idx), None)
            in
            block.missing <- block.missing + 1;
            let d =
              {
                block;
                slot = idx;
                id = req.id;
                deadline_ms = req.deadline_ms;
                deadline_abs =
                  Option.map
                    (fun d -> batch_start +. (float_of_int d /. 1000.))
                    req.deadline_ms;
                line;
                candidates =
                  Array.of_list
                    (List.map (Hashtbl.find t.table) (Ring.ordered t.ring key));
                serial = t.routed_total;
                attempt = 0;
                last_error = None;
                backoff = None;
                on_wire = false;
                answered = false;
                route_span =
                  Span.with_trace trace (fun () -> Span.start "cluster.route");
                dispatch_span = None;
              }
            in
            attempt t d;
            Option.iter
              (fun dl -> if not d.answered then schedule t dl d)
              d.deadline_abs
        end)
    order;
  block.missing <- block.missing - 1;
  if block.missing = 0 then complete block;
  flush_links t

(* The synchronous call drives the same state machine as the serving
   loop until this batch completes. *)
let handle_batch t lines =
  let result = ref None in
  submit t lines (fun responses -> result := Some responses);
  let rec drive () =
    match !result with
    | Some responses -> responses
    | None ->
      let wait = tick t in
      (if !result = None then
         match watch t with
         | [], [] -> (
           (* nothing on the wire: only timers are left; those of
              requests already answered pass without a wait *)
           match Timers.min_binding_opt t.timers with
           | Some (((due, _) as key), d) ->
             t.timers <- Timers.remove key t.timers;
             if not d.answered then begin
               t.sleep (Float.max 0. (due -. t.now ()));
               fire t d;
               flush_links t
             end
           | None -> failwith "Cluster.handle_batch: batch cannot complete")
         | reads, writes -> (
           match Unix.select reads writes [] wait with
           | r, w, _ -> ready t r w
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()));
      drive ()
  in
  drive ()

let stopped t = t.stopping
let request_stop t = t.stopping <- true

let handler t =
  {
    Serve_loop.batch = submit t;
    watch = (fun () -> watch t);
    ready = ready t;
    tick = (fun () -> tick t);
    stopped = (fun () -> t.stopping);
    max_pending = t.cfg.queue_depth;
    metrics_file = t.cfg.metrics_file;
    metrics_every_s = t.cfg.metrics_every_s;
  }

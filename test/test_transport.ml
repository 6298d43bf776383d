(* The serving loop and the router's pipelined backend connections,
   against real daemons over real sockets: idle peers, oversize input,
   injected socket failures, a SIGTERM drain, a backend killed with
   requests in flight, responses kept in send order across backends,
   deadlines expiring in flight, a pipeline outlasting the request
   timeout, and a probe stuck behind another client's work.  Each test spawns its own `etx serve` / `etx route`
   processes and reaps them. *)

module Json = Etx_util.Json
module Netio = Etx_service.Netio
module Ring = Etx_service.Ring
module Request = Etx_service.Request
module Handlers = Etx_service.Handlers
module Server = Etx_service.Server

let exe = "../bin/etx_main.exe"
let now = Unix.gettimeofday

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* a fresh directory for one test's sockets, removed when the run ends *)
let scratch =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "etx-transport-%d-%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    at_exit (fun () -> remove_tree dir);
    dir

let spawn args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) devnull devnull devnull in
  Unix.close devnull;
  pid

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* exit status within [timeout_s], or None *)
let wait_exit ~timeout_s pid =
  let deadline = now () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> if now () > deadline then None else (Unix.sleepf 0.02; go ())
    | _, status -> Some status
  in
  go ()

let connect path =
  match Netio.connect ~deadline:(now () +. 5.) ~now path with
  | Ok fd -> fd
  | Error e -> Alcotest.failf "connect %s: %s" path e

let send fd text = Netio.write_all ~deadline:(now () +. 5.) ~now fd (Bytes.of_string text)

let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let read_line ?(timeout_s = 10.) r =
  match Netio.read_line ~deadline:(now () +. timeout_s) ~now r with
  | Some line -> line
  | None -> Alcotest.fail "connection closed before the response"
  | exception Failure what -> Alcotest.failf "no response: %s" what

(* one batch on a fresh connection *)
let call ?timeout_s path lines =
  let fd = connect path in
  Fun.protect ~finally:(fun () -> close fd) @@ fun () ->
  send fd (String.concat "\n" lines ^ "\n\n");
  let r = Netio.reader fd in
  List.map (fun _ -> read_line ?timeout_s r) lines

let with_daemon args ~socket f =
  let pid = spawn args in
  Fun.protect ~finally:(fun () -> reap pid) @@ fun () ->
  let deadline = now () +. 15. in
  let rec ready () =
    let ok =
      Sys.file_exists socket
      && (match call ~timeout_s:1. socket [ {|{"scenario":"ping"}|} ] with
         | [ _ ] -> true
         | _ | (exception _) -> false)
    in
    if ok then ()
    else if now () > deadline then Alcotest.failf "%s never came up" socket
    else (Unix.sleepf 0.02; ready ())
  in
  ready ();
  f pid

let serve ?(extra = []) socket = [ "serve"; "--socket"; socket; "--jobs"; "1" ] @ extra

let member name line =
  match Json.parse_result line with
  | Error e -> Alcotest.failf "bad response %s: %s" line e
  | Ok j -> Json.member name j

let str name line =
  match member name line with
  | Some (Json.String s) -> s
  | _ -> Alcotest.failf "no string %s in %s" name line

(* one counter of the router's stats *)
let router_stat router name =
  match call router [ {|{"scenario":"stats"}|} ] with
  | [ line ] -> (
    match Option.bind (member "result" line) (Json.member name) with
    | Some (Json.Int n) -> n
    | _ -> Alcotest.failf "no %s in %s" name line)
  | _ -> Alcotest.fail "one stats line expected"

(* the raw bytes of the result field: responses end with it *)
let result_bytes line =
  let tag = {|"result":|} in
  let rec find i =
    if i + String.length tag > String.length line then
      Alcotest.failf "no result in %s" line
    else if String.sub line i (String.length tag) = tag then i + String.length tag
    else find (i + 1)
  in
  let i = find 0 in
  String.sub line i (String.length line - 1 - i)

let ping_answers socket =
  match call ~timeout_s:3. socket [ {|{"id":"p","scenario":"ping"}|} ] with
  | [ line ] -> str "result" line = "pong"
  | _ -> false

let sim_line ~id params =
  Printf.sprintf {|{"id":%S,"scenario":"simulate","params":{%s}}|} id params

let reference lines =
  let server = Server.create { Server.default_config with domains = 1 } in
  Fun.protect ~finally:(fun () -> Server.shutdown server) @@ fun () ->
  List.map
    (fun line ->
      match Server.handle_batch server [ line ] with
      | [ response ] -> result_bytes response
      | _ -> Alcotest.fail "one reference response expected")
    lines

(* a peer that connects, sends half a line and then says nothing *)
let idle_peer socket =
  let fd = connect socket in
  send fd {|{"scenario":"sim|};
  fd

(* - the serving loop - *)

let test_idle_peer_does_not_stall_serve () =
  let dir = scratch () in
  let socket = Filename.concat dir "s.sock" in
  with_daemon (serve socket) ~socket @@ fun _ ->
  let peers = List.init 3 (fun _ -> idle_peer socket) in
  Fun.protect ~finally:(fun () -> List.iter close peers) @@ fun () ->
  let t0 = now () in
  Alcotest.(check bool) "ping answered past idle peers" true (ping_answers socket);
  Alcotest.(check bool) "promptly" true (now () -. t0 < 2.)

let test_oversize_input_closes_only_its_connection () =
  let dir = scratch () in
  let socket = Filename.concat dir "s.sock" in
  with_daemon (serve socket) ~socket @@ fun _ ->
  let check_rejected what payload =
    let bystander = idle_peer socket in
    Fun.protect ~finally:(fun () -> close bystander) @@ fun () ->
    let fd = connect socket in
    Fun.protect ~finally:(fun () -> close fd) @@ fun () ->
    (* the peer may close before every byte is written *)
    (try send fd payload with Unix.Unix_error _ -> ());
    let r = Netio.reader fd in
    let line = read_line r in
    Alcotest.(check string) (what ^ ": explicit error") "request_too_large"
      (str "error" line);
    Alcotest.(check bool) (what ^ ": connection closed") true
      (match Netio.read_line ~deadline:(now () +. 5.) ~now r with
      | None -> true
      | Some _ -> false
      | exception Unix.Unix_error _ -> true);
    Alcotest.(check bool) (what ^ ": others still served") true (ping_answers socket);
    (* the bystander's connection survived: finish its request *)
    send bystander {|ulate","params":{"mesh_size":4}}|};
    send bystander "\n\n";
    Alcotest.(check string) (what ^ ": bystander answered") "ok"
      (str "status" (read_line (Netio.reader bystander)))
  in
  check_rejected "long line" (String.make (Etx_service.Serve_loop.max_line_bytes + 10) 'x');
  check_rejected "long batch"
    (String.concat ""
       (List.init (Etx_service.Serve_loop.max_batch_lines + 1) (fun _ ->
            {|{"scenario":"ping"}|} ^ "\n")))

(* a serve daemon with failpoints armed before its first connection *)
let with_failpoints spec f =
  let dir = scratch () in
  let socket = Filename.concat dir "s.sock" in
  let pid = spawn (serve socket ~extra:[ "--failpoints"; spec ]) in
  Fun.protect ~finally:(fun () -> reap pid) @@ fun () ->
  let deadline = now () +. 15. in
  while not (Sys.file_exists socket) && now () < deadline do
    Unix.sleepf 0.02
  done;
  Unix.sleepf 0.05;
  f socket

let test_socket_failpoints_cost_one_connection () =
  List.iter
    (fun spec ->
      (* armed once: the first connection's first read, or write, fails *)
      with_failpoints spec @@ fun socket ->
      let fd = connect socket in
      send fd ({|{"scenario":"ping"}|} ^ "\n\n");
      let lost =
        match Netio.read_line ~deadline:(now () +. 5.) ~now (Netio.reader fd) with
        | None -> true
        | Some _ -> false
        | exception Unix.Unix_error _ -> true
      in
      close fd;
      Alcotest.(check bool) (spec ^ ": the failing connection is dropped") true lost;
      Alcotest.(check bool) (spec ^ ": the daemon serves on") true (ping_answers socket))
    [ "net.read=eio"; "net.write=epipe" ]

let test_short_and_interrupted_transfers_are_absorbed () =
  let line = sim_line ~id:"s" {|"mesh_size":4|} in
  let expected = reference [ line ] in
  List.iter
    (fun spec ->
      with_failpoints spec @@ fun socket ->
      match call socket [ line; {|{"id":"p","scenario":"ping"}|} ] with
      | [ response; pong ] ->
        Alcotest.(check (list string)) (spec ^ ": bytes intact") expected
          [ result_bytes response ];
        Alcotest.(check string) (spec ^ ": batch complete") "pong" (str "result" pong)
      | _ -> Alcotest.fail "two responses expected")
    [ "net.read=short:3!"; "net.write=short:5!"; "net.read=eintr"; "net.write=eintr" ]

let test_sigterm_answers_buffered_batches () =
  let dir = scratch () in
  let socket = Filename.concat dir "s.sock" in
  with_daemon (serve socket) ~socket @@ fun pid ->
  let lines =
    Printf.sprintf {|{"id":"slow","scenario":"fig7","params":{"sizes":[8],"seeds":[1,2,3,4,5,6,7,8]}}|}
    :: List.init 4 (fun i ->
           sim_line ~id:(Printf.sprintf "f%d" i)
             (Printf.sprintf {|"mesh_size":4,"seed":%d|} (i + 1)))
  in
  let fd = connect socket in
  Fun.protect ~finally:(fun () -> close fd) @@ fun () ->
  (* five batches in one write: the daemon reads them at once, then
     computes the first while the stop arrives *)
  send fd (String.concat "" (List.map (fun line -> line ^ "\n\n") lines));
  Unix.sleepf 0.15;
  Unix.kill pid Sys.sigterm;
  let r = Netio.reader fd in
  let responses = List.map (fun _ -> read_line ~timeout_s:30. r) lines in
  Alcotest.(check (list string)) "every buffered batch answered, in order"
    ("slow" :: List.init 4 (Printf.sprintf "f%d"))
    (List.map (str "id") responses);
  List.iter (fun line -> Alcotest.(check string) "ok" "ok" (str "status" line)) responses;
  match wait_exit ~timeout_s:10. pid with
  | Some (Unix.WEXITED 0) -> ()
  | Some _ -> Alcotest.fail "serve exited uncleanly on SIGTERM"
  | None -> Alcotest.fail "serve did not exit after answering"

(* - the router over real backends - *)

let slow_line ?deadline_ms ~id seeds =
  Printf.sprintf {|{"id":%S,"scenario":"fig7","params":{"sizes":[8],"seeds":[%s]}%s}|}
    id
    (String.concat "," (List.map string_of_int seeds))
    (match deadline_ms with None -> "" | Some d -> Printf.sprintf {|,"deadline_ms":%d|} d)

let owner backends line =
  match Request.of_line line with
  | Ok { Request.body = Request.Scenario s; _ } ->
    List.hd (Ring.ordered (Ring.create ~replicas:64 backends) (Handlers.key s))
  | _ -> Alcotest.failf "not a scenario: %s" line

(* fast simulate requests owned by [backend], ids "<prefix>i" *)
let fast_lines backends backend ~prefix n =
  let rec go seed acc =
    if List.length acc = n then List.rev acc
    else
      let line =
        sim_line ~id:(Printf.sprintf "%s%d" prefix (List.length acc))
          (Printf.sprintf {|"mesh_size":4,"seed":%d|} seed)
      in
      go (seed + 1) (if owner backends line = backend then line :: acc else acc)
  in
  go 1 []

(* a request owned by [backend] that computes for a good fraction of a
   second (eight 8x8 fig7 runs), long enough to have the rest queued
   behind it *)
let slow_for ?deadline_ms backends backend ~id =
  let rec go first =
    let seeds = List.init 8 (fun i -> first + i) in
    let line = slow_line ?deadline_ms ~id seeds in
    if owner backends line = backend then line else go (first + 1)
  in
  go 1

(* [n] distinct slow requests owned by [backend], ids "<prefix>i", each
   [seeds] fig7 runs on an 8x8 mesh *)
let slow_lines ?(seeds = 8) backends backend ~prefix n =
  let rec go first acc =
    if List.length acc = n then List.rev acc
    else
      let line =
        slow_line ~id:(Printf.sprintf "%s%d" prefix (List.length acc))
          (List.init seeds (fun i -> first + i))
      in
      if owner backends line = backend then go (first + seeds) (line :: acc)
      else go (first + 1) acc
  in
  go 1 []

(* two backends and a router over them; [f router backends pids] *)
let with_cluster ?(route_extra = []) f =
  let dir = scratch () in
  let a = Filename.concat dir "a.sock" and b = Filename.concat dir "b.sock" in
  let router = Filename.concat dir "r.sock" in
  with_daemon (serve a) ~socket:a @@ fun pa ->
  with_daemon (serve b) ~socket:b @@ fun pb ->
  with_daemon
    ([ "route"; "--socket"; router; "--backends"; a ^ "," ^ b ] @ route_extra)
    ~socket:router
  @@ fun pr -> f ~router ~backends:[ a; b ] ~pids:[ pa; pb; pr ]

(* send each line as its own batch on one connection, then read them all *)
let pipeline router lines =
  let fd = connect router in
  Fun.protect ~finally:(fun () -> close fd) @@ fun () ->
  List.iter (fun line -> send fd (line ^ "\n\n")) lines;
  let r = Netio.reader fd in
  List.map (fun _ -> read_line ~timeout_s:30. r) lines

let test_idle_peer_does_not_stall_router () =
  with_cluster ~route_extra:[ "--health-period"; "0.1" ]
  @@ fun ~router ~backends:_ ~pids ->
  let peer = idle_peer router in
  Fun.protect ~finally:(fun () -> close peer) @@ fun () ->
  Alcotest.(check bool) "ping answered past an idle peer" true (ping_answers router);
  let before = router_stat router "probe_total" in
  Unix.sleepf 0.6;
  Alcotest.(check bool) "probes keep running while the peer idles" true
    (router_stat router "probe_total" >= before + 3);
  let pr = List.nth pids 2 in
  Unix.kill pr Sys.sigterm;
  match wait_exit ~timeout_s:3. pr with
  | Some (Unix.WEXITED 0) -> ()
  | Some _ -> Alcotest.fail "router exited uncleanly on SIGTERM"
  | None -> Alcotest.fail "SIGTERM drain stalled behind an idle peer"

let test_killed_backend_fails_over_in_flight () =
  with_cluster @@ fun ~router ~backends ~pids ->
  let victim = List.hd backends in
  let lines =
    slow_for backends victim ~id:"slow" :: fast_lines backends victim ~prefix:"f" 4
  in
  let expected = reference lines in
  let fd = connect router in
  Fun.protect ~finally:(fun () -> close fd) @@ fun () ->
  List.iter (fun line -> send fd (line ^ "\n\n")) lines;
  (* the victim is computing the slow request with the rest queued *)
  Unix.sleepf 0.1;
  reap (List.hd pids);
  let r = Netio.reader fd in
  let responses = List.map (fun _ -> read_line ~timeout_s:30. r) lines in
  List.iteri
    (fun i (line, want) ->
      Alcotest.(check string) (Printf.sprintf "request %d answered ok" i) "ok"
        (str "status" line);
      Alcotest.(check string) (Printf.sprintf "request %d bytes identical" i) want
        (result_bytes line))
    (List.combine responses expected);
  Alcotest.(check bool) "every in-flight request failed over" true
    (router_stat router "failover_total" >= List.length lines)

let test_responses_keep_send_order () =
  with_cluster @@ fun ~router ~backends ~pids:_ ->
  let a = List.nth backends 0 and b = List.nth backends 1 in
  let lines = slow_for backends a ~id:"slow" :: fast_lines backends b ~prefix:"f" 6 in
  let responses = pipeline router lines in
  Alcotest.(check (list string)) "ids in send order"
    ("slow" :: List.init 6 (Printf.sprintf "f%d"))
    (List.map (str "id") responses);
  List.iter
    (fun line -> Alcotest.(check string) "ok" "ok" (str "status" line))
    responses

(* A request's timeout runs while it is being answered, not while it
   waits behind others on the same backend connection. *)
let test_pipelined_queue_outlasts_the_request_timeout () =
  let seeds = 4 in
  let t0 = now () in
  ignore (reference [ slow_line ~id:"t" (List.init seeds (fun i -> 1001 + i)) ]);
  let timeout = Float.max 0.5 (2.5 *. (now () -. t0)) in
  with_cluster ~route_extra:[ "--request-timeout"; Printf.sprintf "%.3f" timeout ]
  @@ fun ~router ~backends ~pids:_ ->
  let lines = slow_lines ~seeds backends (List.hd backends) ~prefix:"s" 8 in
  let t0 = now () in
  let responses = pipeline router lines in
  Alcotest.(check bool) "the queue outlasted one request timeout" true
    (now () -. t0 > timeout);
  Alcotest.(check (list string)) "ids in send order"
    (List.init 8 (Printf.sprintf "s%d"))
    (List.map (str "id") responses);
  List.iter (fun line -> Alcotest.(check string) "ok" "ok" (str "status" line)) responses;
  Alcotest.(check int) "no failover" 0 (router_stat router "failover_total")

(* A probe stuck behind another client's long batch counts against the
   backend's health, but the requests queued behind it on the router's
   connection keep that connection. *)
let test_late_probe_keeps_requests_behind_it () =
  with_cluster ~route_extra:[ "--health-period"; "0.1" ]
  @@ fun ~router ~backends ~pids:_ ->
  let a = List.hd backends in
  (* keep [a] computing for a direct client well past the 1 s probe
     timeout *)
  let busy = slow_lines backends a ~prefix:"busy" 4 in
  let direct = connect a in
  Fun.protect ~finally:(fun () -> close direct) @@ fun () ->
  send direct (String.concat "\n" busy ^ "\n\n");
  (* the router's next probe of [a] now waits behind that batch *)
  Unix.sleepf 0.3;
  let fast = fast_lines backends a ~prefix:"f" 2 in
  let responses = pipeline router fast in
  Alcotest.(check (list string)) "answered in order" [ "f0"; "f1" ]
    (List.map (str "id") responses);
  List.iter (fun line -> Alcotest.(check string) "ok" "ok" (str "status" line)) responses;
  Alcotest.(check bool) "the probe timed out" true
    (router_stat router "probe_failures" >= 1);
  Alcotest.(check int) "no failover" 0 (router_stat router "failover_total");
  let r = Netio.reader direct in
  List.iter (fun _ -> ignore (read_line ~timeout_s:30. r)) busy

let test_deadline_in_flight_keeps_fifo () =
  with_cluster @@ fun ~router ~backends ~pids:_ ->
  let a = List.hd backends in
  let slow = slow_for ~deadline_ms:50 backends a ~id:"slow" in
  let fast = fast_lines backends a ~prefix:"f" 2 in
  let expected = reference fast in
  let fd = connect router in
  Fun.protect ~finally:(fun () -> close fd) @@ fun () ->
  let r = Netio.reader fd in
  send fd (slow ^ "\n\n" ^ List.nth fast 0 ^ "\n\n");
  let first = read_line r in
  Alcotest.(check string) "expired in flight" "deadline_exceeded" (str "error" first);
  Alcotest.(check string) "its own id" "slow" (str "id" first);
  let second = read_line ~timeout_s:30. r in
  Alcotest.(check string) "next request gets its own reply" "f0" (str "id" second);
  Alcotest.(check string) "with its own bytes" (List.nth expected 0) (result_bytes second);
  (* the late reply was read and dropped: the connection stays aligned *)
  send fd (List.nth fast 1 ^ "\n\n");
  let third = read_line ~timeout_s:30. r in
  Alcotest.(check string) "later request aligned" "f1" (str "id" third);
  Alcotest.(check string) "later bytes" (List.nth expected 1) (result_bytes third)

let () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Alcotest.run "transport"
    [
      ( "serve-loop",
        [
          Alcotest.test_case "idle peer does not stall serve" `Quick
            test_idle_peer_does_not_stall_serve;
          Alcotest.test_case "oversize input closes only its connection" `Quick
            test_oversize_input_closes_only_its_connection;
          Alcotest.test_case "socket failpoints cost one connection" `Quick
            test_socket_failpoints_cost_one_connection;
          Alcotest.test_case "short and interrupted transfers are absorbed"
            `Quick test_short_and_interrupted_transfers_are_absorbed;
          Alcotest.test_case "SIGTERM answers buffered batches" `Quick
            test_sigterm_answers_buffered_batches;
        ] );
      ( "pipelined-router",
        [
          Alcotest.test_case "idle peer stalls neither ping, probes nor drain"
            `Quick test_idle_peer_does_not_stall_router;
          Alcotest.test_case "killed backend fails over in-flight requests"
            `Quick test_killed_backend_fails_over_in_flight;
          Alcotest.test_case "responses keep send order across backends" `Quick
            test_responses_keep_send_order;
          Alcotest.test_case "deadline in flight keeps the FIFO aligned" `Quick
            test_deadline_in_flight_keeps_fifo;
          Alcotest.test_case "pipelined queue outlasts the request timeout"
            `Quick test_pipelined_queue_outlasts_the_request_timeout;
          Alcotest.test_case "late probe keeps the requests behind it" `Quick
            test_late_probe_keeps_requests_behind_it;
        ] );
    ]

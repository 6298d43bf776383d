(* The observability subsystem under attack: the disarmed contract
   (mutators must be no-ops), registration idempotence, exposition
   formats, span parent/child structure, and the trace_id wire field —
   injected by the router, tolerated by old-style peers, never echoed. *)

module Obs = Etx_obs.Obs
module Span = Etx_obs.Span
module Expo = Etx_obs.Expo
module Json = Etx_util.Json
module Request = Etx_service.Request
module Server = Etx_service.Server
module Cluster = Etx_service.Cluster

(* Every test leaves the registry disarmed and zeroed so the rest of
   the run — including the bit-identity suites — sees a quiet
   subsystem.  Registrations survive reset by design. *)
let quiesce () =
  Obs.disarm ();
  Obs.reset ();
  Span.reset ()

let armed f =
  quiesce ();
  Obs.arm ();
  Fun.protect ~finally:quiesce f

(* - registry - *)

let test_counters_and_gauges () =
  armed (fun () ->
      let c = Obs.counter ~help:"test" "etx_test_hits_total" in
      Obs.inc c;
      Obs.add c 4;
      Alcotest.(check int) "counter accumulates" 5 (Obs.counter_value c);
      let g = Obs.gauge "etx_test_depth" in
      Obs.set g 3.25;
      Alcotest.(check (float 1e-9)) "gauge holds last set" 3.25 (Obs.gauge_value g);
      Obs.set g (-1.5);
      Alcotest.(check (float 1e-9)) "gauges go negative" (-1.5) (Obs.gauge_value g))

let test_disarmed_mutators_are_noops () =
  quiesce ();
  let c = Obs.counter "etx_test_quiet_total" in
  let g = Obs.gauge "etx_test_quiet_depth" in
  let h = Obs.histogram "etx_test_quiet_ms" in
  Obs.inc c;
  Obs.add c 100;
  Obs.set g 42.;
  Obs.observe h 1.0;
  Alcotest.(check int) "disarmed counter untouched" 0 (Obs.counter_value c);
  Alcotest.(check (float 0.)) "disarmed gauge untouched" 0. (Obs.gauge_value g);
  Alcotest.(check int) "disarmed histogram untouched" 0 (Obs.hist_count h);
  Alcotest.(check bool) "enabled reports disarmed" false (Obs.enabled ())

let test_registration_idempotent () =
  armed (fun () ->
      let a = Obs.counter ~labels:[ ("backend", "b0") ] "etx_test_shared_total" in
      let b = Obs.counter ~labels:[ ("backend", "b0") ] "etx_test_shared_total" in
      Obs.inc a;
      Alcotest.(check int) "same (name, labels) is the same cell" 1
        (Obs.counter_value b);
      let other = Obs.counter ~labels:[ ("backend", "b1") ] "etx_test_shared_total" in
      Alcotest.(check int) "distinct labels are distinct cells" 0
        (Obs.counter_value other);
      Alcotest.check_raises "kind conflict rejected"
        (Invalid_argument
           "Obs: etx_test_shared_total already registered as counter")
        (fun () -> ignore (Obs.gauge "etx_test_shared_total"));
      Alcotest.(check bool) "bad metric name rejected" true
        (match Obs.counter "9starts-with-digit" with
        | _ -> false
        | exception Invalid_argument _ -> true))

let test_log_linear_bounds () =
  let bounds = Obs.log_linear ~lo:0.01 ~hi:10_000. ~per_octave:2 in
  Alcotest.(check bool) "at least a few buckets" true (Array.length bounds > 8);
  Alcotest.(check (float 1e-9)) "first bound is lo" 0.01 bounds.(0);
  Alcotest.(check (float 1e-6)) "last bound is hi" 10_000.
    bounds.(Array.length bounds - 1);
  let monotone = ref true in
  Array.iteri
    (fun i b -> if i > 0 && b <= bounds.(i - 1) then monotone := false)
    bounds;
  Alcotest.(check bool) "bounds strictly increase" true !monotone

let test_histogram_observation () =
  armed (fun () ->
      let h =
        Obs.histogram ~bounds:[| 1.; 10.; 100. |] "etx_test_latency_ms"
      in
      List.iter (Obs.observe h) [ 0.5; 5.; 50.; 500.; 7. ];
      Alcotest.(check int) "every observation counted" 5 (Obs.hist_count h);
      Alcotest.(check (float 1e-6)) "sum tracks observations" 562.5
        (Obs.hist_sum h);
      match
        List.find_opt
          (fun s -> s.Obs.name = "etx_test_latency_ms")
          (Obs.snapshot ())
      with
      | Some { Obs.value = Obs.Hist_v { counts; bounds; _ }; _ } ->
        Alcotest.(check int) "one overflow bucket" (Array.length bounds + 1)
          (Array.length counts);
        Alcotest.(check (list int)) "per-bucket placement" [ 1; 2; 1; 1 ]
          (Array.to_list counts)
      | _ -> Alcotest.fail "histogram sample missing from snapshot")

let test_reset_keeps_registrations () =
  armed (fun () ->
      let c = Obs.counter "etx_test_reset_total" in
      Obs.inc c;
      Obs.reset ();
      Alcotest.(check int) "reset zeroes the cell" 0 (Obs.counter_value c);
      Obs.inc c;
      Alcotest.(check int) "the handle still records" 1 (Obs.counter_value c))

(* - exposition - *)

let test_prometheus_exposition () =
  armed (fun () ->
      let c =
        Obs.counter ~help:"help text"
          ~labels:[ ("path", "a\"b\\c\nd") ]
          "etx_test_expo_total"
      in
      Obs.add c 3;
      let h = Obs.histogram ~bounds:[| 1.; 10. |] "etx_test_expo_ms" in
      Obs.observe h 0.5;
      Obs.observe h 99.;
      let text = Expo.prometheus () in
      let has s = Astring_contains.contains text s in
      Alcotest.(check bool) "HELP line present" true
        (has "# HELP etx_test_expo_total help text");
      Alcotest.(check bool) "TYPE line present" true
        (has "# TYPE etx_test_expo_total counter");
      Alcotest.(check bool) "label value escaped" true
        (has {|etx_test_expo_total{path="a\"b\\c\nd"} 3|});
      Alcotest.(check bool) "cumulative +Inf bucket equals count" true
        (has {|etx_test_expo_ms_bucket{le="+Inf"} 2|});
      Alcotest.(check bool) "mid bucket is cumulative" true
        (has {|etx_test_expo_ms_bucket{le="10"} 1|});
      Alcotest.(check bool) "histogram count series" true
        (has "etx_test_expo_ms_count 2"))

let test_json_exposition_round_trips () =
  armed (fun () ->
      Obs.inc (Obs.counter "etx_test_json_total");
      match Json.parse_result (Json.to_string (Expo.json ())) with
      | Error message -> Alcotest.failf "exposition not strict JSON: %s" message
      | Ok json ->
        Alcotest.(check bool) "armed flag exposed" true
          (Json.member "armed" json = Some (Json.Bool true));
        (match Json.member "metrics" json with
        | Some (Json.List (_ :: _)) -> ()
        | _ -> Alcotest.fail "metrics array missing or empty");
        (match Json.member "spans" json with
        | Some (Json.List _) -> ()
        | _ -> Alcotest.fail "spans array missing"))

let test_snapshot_file () =
  armed (fun () ->
      Obs.inc (Obs.counter "etx_test_file_total");
      let dir = Filename.temp_file "etx-obs" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "metrics.json" in
      Expo.write_snapshot ~path ();
      let ic = open_in_bin path in
      let contents = In_channel.input_all ic in
      close_in ic;
      (match Json.parse_result contents with
      | Error message -> Alcotest.failf "snapshot not parseable: %s" message
      | Ok json ->
        Alcotest.(check bool) "snapshot carries metrics" true
          (Json.member "metrics" json <> None));
      Alcotest.(check (list string)) "no temp files left" [ "metrics.json" ]
        (Array.to_list (Sys.readdir dir));
      Sys.remove path;
      Unix.rmdir dir)

(* - spans - *)

let test_spans_record_structure () =
  armed (fun () ->
      let tid = Span.new_trace_id () in
      Alcotest.(check int) "trace ids are 16 hex chars" 16 (String.length tid);
      String.iter
        (fun ch ->
          match ch with
          | '0' .. '9' | 'a' .. 'f' -> ()
          | _ -> Alcotest.failf "non-hex trace id char %c" ch)
        tid;
      Span.with_trace (Some tid) (fun () ->
          Span.span "outer" (fun () -> Span.span "inner" (fun () -> ())));
      let spans = Span.recent () in
      Alcotest.(check int) "both spans recorded" 2 (List.length spans);
      let find name = List.find (fun s -> s.Span.name = name) spans in
      let outer = find "outer" and inner = find "inner" in
      Alcotest.(check string) "same trace" tid outer.Span.trace_id;
      Alcotest.(check string) "child shares the trace" tid inner.Span.trace_id;
      Alcotest.(check int) "outer is a root span" 0 outer.Span.parent_id;
      Alcotest.(check int) "inner parents to outer" outer.Span.span_id
        inner.Span.parent_id;
      List.iter
        (fun s ->
          if not (s.Span.end_s > s.Span.start_s) then
            Alcotest.failf "span %s has non-positive duration" s.Span.name)
        spans)

let test_spans_need_trace_and_arming () =
  armed (fun () ->
      Span.span "orphan" (fun () -> ());
      Alcotest.(check int) "no trace installed, nothing recorded" 0
        (List.length (Span.recent ())));
  quiesce ();
  Span.with_trace (Some "deadbeefdeadbeef") (fun () ->
      Span.span "quiet" (fun () -> ()));
  Alcotest.(check int) "disarmed, nothing recorded" 0
    (List.length (Span.recent ()))

let test_span_recorded_on_exception () =
  armed (fun () ->
      (try
         Span.with_trace (Some "deadbeefdeadbeef") (fun () ->
             Span.span "boom" (fun () -> failwith "expected"))
       with Failure _ -> ());
      Alcotest.(check int) "span survives the raise" 1
        (List.length (Span.recent ())))

let test_now_s_strictly_increases () =
  let previous = ref (Span.now_s ()) in
  for _ = 1 to 1000 do
    let t = Span.now_s () in
    if not (t > !previous) then Alcotest.fail "clock went backwards or stalled";
    previous := t
  done

(* - the trace_id wire field - *)

let test_request_trace_id_parsing () =
  let parse line =
    match Request.of_line line with
    | Ok r -> Ok r.Request.trace_id
    | Error e -> Error e.Request.error_code
  in
  Alcotest.(check (result (option string) string))
    "present and a string" (Ok (Some "abc123"))
    (parse {|{"scenario":"ping","trace_id":"abc123"}|});
  Alcotest.(check (result (option string) string))
    "absent means none" (Ok None) (parse {|{"scenario":"ping"}|});
  Alcotest.(check (result (option string) string))
    "non-string rejected" (Error "invalid_request")
    (parse {|{"scenario":"ping","trace_id":7}|})

let test_metrics_control_parsing () =
  let body line =
    match Request.of_line line with
    | Ok r -> Ok r.Request.body
    | Error e -> Error e.Request.error_code
  in
  Alcotest.(check bool) "default format is json" true
    (body {|{"scenario":"metrics"}|}
    = Ok (Request.Control (Request.Metrics Request.Metrics_json)));
  Alcotest.(check bool) "prometheus selected" true
    (body {|{"scenario":"metrics","params":{"format":"prometheus"}}|}
    = Ok (Request.Control (Request.Metrics Request.Metrics_prometheus)));
  Alcotest.(check bool) "unknown format rejected" true
    (body {|{"scenario":"metrics","params":{"format":"xml"}}|}
    = Error "invalid_request")

(* Old-peer compatibility: a request carrying trace_id plus arbitrary
   unknown fields, in any key order, must parse to the same scenario —
   the field rides the existing ignore-unknown-keys contract. *)
let prop_unknown_fields_tolerated =
  let known =
    [
      ({|"scenario":"simulate"|}, `Scenario);
      ({|"params":{"mesh_size":4}|}, `Params);
      ({|"id":7|}, `Id);
      ({|"priority":2|}, `Priority);
      ({|"trace_id":"00ff00ff00ff00ff"|}, `Trace);
    ]
  in
  let unknown_field i =
    Printf.sprintf {|"x_future_field_%d":%s|} i
      (List.nth [ "true"; "[1,2]"; {|"text"|}; "null"; "3.5" ] (i mod 5))
  in
  QCheck.Test.make ~name:"wire: unknown fields and key order are tolerated"
    ~count:200
    QCheck.(pair (int_range 0 4) (list_of_size Gen.(0 -- 4) small_nat))
    (fun (rot, extras) ->
      let fields =
        List.map fst known @ List.mapi (fun i _ -> unknown_field i) extras
      in
      (* rotate: exercise every position for each known field *)
      let n = List.length fields in
      let rotated = List.init n (fun i -> List.nth fields ((i + rot) mod n)) in
      let line = "{" ^ String.concat "," rotated ^ "}" in
      match Request.of_line line with
      | Error _ -> false
      | Ok r ->
        r.Request.trace_id = Some "00ff00ff00ff00ff"
        && r.Request.priority = 2
        && Request.scenario_name r.Request.body = "simulate")

(* - router injection and backend exposition - *)

let str_member name json =
  match Json.member name json with
  | Some (Json.String s) -> s
  | _ -> Alcotest.failf "field %s missing or not a string" name

let in_process_cluster captured =
  Cluster.create
    ~now:(fun () -> 0.)
    ~sleep:(fun _ -> ())
    ~rpc:(fun ~path:_ ~timeout_s:_ line ->
      captured := line :: !captured;
      Ok {|{"status":"ok","id":0}|})
    {
      (Cluster.default_config ~backends:[ "a.sock" ]) with
      Cluster.health_period_s = 1000.;
    }

let request_line = {|{"scenario":"simulate","params":{"mesh_size":4},"id":0}|}

let test_router_injects_trace_id_when_armed () =
  armed (fun () ->
      let captured = ref [] in
      let cluster = in_process_cluster captured in
      (match Cluster.handle_batch cluster [ request_line ] with
      | [ response ] ->
        Alcotest.(check bool) "trace id never echoed to the client" false
          (Astring_contains.contains response "trace_id")
      | _ -> Alcotest.fail "one response expected");
      match List.filter (fun l -> Astring_contains.contains l "simulate") !captured with
      | [ forwarded ] -> (
        Alcotest.(check bool) "forwarded line was rewritten" true
          (forwarded <> request_line);
        match Request.of_line forwarded with
        | Error e ->
          Alcotest.failf "injected line no longer parses: %s" e.Request.reason
        | Ok r ->
          (match r.Request.trace_id with
          | Some tid -> Alcotest.(check int) "minted id shape" 16 (String.length tid)
          | None -> Alcotest.fail "router did not inject a trace id");
          Alcotest.(check string) "request body intact" "simulate"
            (Request.scenario_name r.Request.body))
      | lines -> Alcotest.failf "expected one forwarded line, got %d" (List.length lines))

let test_router_respects_client_trace_id () =
  armed (fun () ->
      let captured = ref [] in
      let cluster = in_process_cluster captured in
      let line =
        {|{"scenario":"simulate","params":{"mesh_size":4},"id":0,"trace_id":"feedfacefeedface"}|}
      in
      ignore (Cluster.handle_batch cluster [ line ]);
      match List.filter (fun l -> Astring_contains.contains l "simulate") !captured with
      | [ forwarded ] ->
        Alcotest.(check string) "client-minted id forwarded untouched" line
          forwarded
      | _ -> Alcotest.fail "expected one forwarded line")

let test_router_forwards_verbatim_when_disarmed () =
  quiesce ();
  let captured = ref [] in
  let cluster = in_process_cluster captured in
  ignore (Cluster.handle_batch cluster [ request_line ]);
  match List.filter (fun l -> Astring_contains.contains l "simulate") !captured with
  | [ forwarded ] ->
    Alcotest.(check string) "disarmed router is byte-transparent" request_line
      forwarded
  | _ -> Alcotest.fail "expected one forwarded line"

(* The router's stats and its exposition count the same errors: a
   malformed line, an invalid request, a shed request. *)
let test_router_error_counters_agree () =
  armed (fun () ->
      let cluster =
        Cluster.create
          ~now:(fun () -> 0.)
          ~sleep:(fun _ -> ())
          ~rpc:(fun ~path:_ ~timeout_s:_ _ -> Ok {|{"status":"ok","id":0}|})
          {
            (Cluster.default_config ~backends:[ "a.sock" ]) with
            Cluster.health_period_s = 1000.;
            queue_depth = 2;
          }
      in
      let statuses =
        List.map
          (fun line ->
            match Json.parse_result line with
            | Ok j -> str_member "status" j
            | Error m -> Alcotest.failf "bad response %s: %s" line m)
          (Cluster.handle_batch cluster
             [
               "not json";
               {|{"scenario":"simulate","params":{"policy":"quantum"}}|};
               request_line;
               {|{"scenario":"simulate","params":{"mesh_size":5}}|};
             ])
      in
      Alcotest.(check (list string)) "malformed, invalid, ok, shed"
        [ "error"; "error"; "ok"; "error" ] statuses;
      let stats =
        match Cluster.handle_batch cluster [ {|{"scenario":"stats"}|} ] with
        | [ line ] -> (
          match Json.parse_result line with
          | Ok j -> (
            match Option.bind (Json.member "result" j) (Json.member "errors_total") with
            | Some (Json.Int n) -> n
            | _ -> Alcotest.fail "no errors_total")
          | Error m -> Alcotest.fail m)
        | _ -> Alcotest.fail "one stats line expected"
      in
      let scraped =
        String.split_on_char '\n' (Expo.prometheus ())
        |> List.find_map (fun l ->
               match String.split_on_char ' ' l with
               | [ "etx_cluster_errors_total"; v ] -> int_of_string_opt v
               | _ -> None)
      in
      Alcotest.(check int) "three errors counted" 3 stats;
      Alcotest.(check (option int)) "stats field equals the scraped counter"
        (Some stats) scraped)

(* cluster.route spans a request from arrival to answer, with each
   cluster.dispatch attempt beneath it *)
let test_router_spans_cover_dispatch () =
  armed (fun () ->
      let cluster = in_process_cluster (ref []) in
      ignore (Cluster.handle_batch cluster [ request_line ]);
      let spans = Span.recent () in
      match
        ( List.filter (fun s -> s.Span.name = "cluster.route") spans,
          List.filter (fun s -> s.Span.name = "cluster.dispatch") spans )
      with
      | [ route ], [ dispatch ] ->
        Alcotest.(check int) "route is a root span" 0 route.Span.parent_id;
        Alcotest.(check int) "dispatch parents to route" route.Span.span_id
          dispatch.Span.parent_id;
        Alcotest.(check bool) "dispatch inside route" true
          (route.Span.start_s <= dispatch.Span.start_s
          && dispatch.Span.end_s <= route.Span.end_s)
      | routes, dispatches ->
        Alcotest.failf "expected one route and one dispatch span, got %d and %d"
          (List.length routes) (List.length dispatches))

let test_server_metrics_request () =
  armed (fun () ->
      let server = Server.create { Server.default_config with Server.domains = 1 } in
      Fun.protect
        ~finally:(fun () -> Server.shutdown server)
        (fun () ->
          ignore (Server.handle_batch server [ request_line ]);
          let answer line =
            match Server.handle_batch server [ line ] with
            | [ response ] -> (
              match Json.parse_result response with
              | Ok json ->
                Alcotest.(check string) "metrics request succeeds" "ok"
                  (str_member "status" json);
                Option.get (Json.member "result" json)
              | Error message -> Alcotest.failf "unparseable response: %s" message)
            | _ -> Alcotest.fail "one response expected"
          in
          (match answer {|{"scenario":"metrics","params":{"format":"json"}}|} with
          | Json.Obj _ as result ->
            Alcotest.(check bool) "json exposition has metrics" true
              (Json.member "metrics" result <> None)
          | _ -> Alcotest.fail "json format must answer with an object");
          match answer {|{"scenario":"metrics","params":{"format":"prometheus"}}|} with
          | Json.String text ->
            Alcotest.(check bool) "prometheus text mentions server requests" true
              (Astring_contains.contains text "etx_server_requests_total")
          | _ -> Alcotest.fail "prometheus format must answer with text"))

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
        Alcotest.test_case "disarmed mutators are no-ops" `Quick
          test_disarmed_mutators_are_noops;
        Alcotest.test_case "registration is idempotent" `Quick
          test_registration_idempotent;
        Alcotest.test_case "log-linear bounds" `Quick test_log_linear_bounds;
        Alcotest.test_case "histogram observation" `Quick
          test_histogram_observation;
        Alcotest.test_case "reset keeps registrations" `Quick
          test_reset_keeps_registrations;
        Alcotest.test_case "prometheus exposition" `Quick
          test_prometheus_exposition;
        Alcotest.test_case "json exposition round-trips" `Quick
          test_json_exposition_round_trips;
        Alcotest.test_case "snapshot file" `Quick test_snapshot_file;
        Alcotest.test_case "spans record structure" `Quick
          test_spans_record_structure;
        Alcotest.test_case "spans need a trace and arming" `Quick
          test_spans_need_trace_and_arming;
        Alcotest.test_case "span recorded on exception" `Quick
          test_span_recorded_on_exception;
        Alcotest.test_case "now_s strictly increases" `Quick
          test_now_s_strictly_increases;
        Alcotest.test_case "request trace_id parsing" `Quick
          test_request_trace_id_parsing;
        Alcotest.test_case "metrics control parsing" `Quick
          test_metrics_control_parsing;
        QCheck_alcotest.to_alcotest prop_unknown_fields_tolerated;
        Alcotest.test_case "router injects trace id when armed" `Quick
          test_router_injects_trace_id_when_armed;
        Alcotest.test_case "router respects a client trace id" `Quick
          test_router_respects_client_trace_id;
        Alcotest.test_case "router forwards verbatim when disarmed" `Quick
          test_router_forwards_verbatim_when_disarmed;
        Alcotest.test_case "router error counters agree" `Quick
          test_router_error_counters_agree;
        Alcotest.test_case "router spans cover dispatch" `Quick
          test_router_spans_cover_dispatch;
        Alcotest.test_case "server metrics request" `Quick
          test_server_metrics_request;
      ] );
  ]

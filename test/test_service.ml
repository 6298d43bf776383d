(* Tests for lib/service: the LRU result cache, request parsing, and the
   server's batch semantics — admission control, priority ordering,
   deduplication, and bit-identical cached replays. *)

module Json = Etx_util.Json
module Cache = Etx_service.Cache
module Request = Etx_service.Request
module Server = Etx_service.Server
module Handlers = Etx_service.Handlers

(* - cache - *)

let test_cache_basics () =
  let c = Cache.create ~capacity:4 in
  Alcotest.(check (option int)) "empty miss" None (Cache.find c "a");
  Cache.add c "a" 1;
  Alcotest.(check (option int)) "hit" (Some 1) (Cache.find c "a");
  Cache.add c "a" 2;
  Alcotest.(check (option int)) "overwrite" (Some 2) (Cache.find c "a");
  Alcotest.(check int) "length" 1 (Cache.length c);
  Alcotest.(check int) "hits" 2 (Cache.hits c);
  Alcotest.(check int) "misses" 1 (Cache.misses c)

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  (* touch a so b is the least recently used *)
  ignore (Cache.find c "a");
  Cache.add c "c" 3;
  Alcotest.(check int) "bounded" 2 (Cache.length c);
  Alcotest.(check int) "one eviction" 1 (Cache.evictions c);
  Alcotest.(check (option int)) "lru evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "recent kept" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "new kept" (Some 3) (Cache.find c "c")

let test_cache_disabled_and_invalid () =
  let c = Cache.create ~capacity:0 in
  Cache.add c "a" 1;
  Alcotest.(check (option int)) "storage disabled" None (Cache.find c "a");
  Alcotest.(check int) "nothing stored" 0 (Cache.length c);
  match Cache.create ~capacity:(-1) with
  | _ -> Alcotest.fail "negative capacity accepted"
  | exception Invalid_argument _ -> ()

(* - requests - *)

let test_request_parsing () =
  (match Request.of_line {|{"scenario":"simulate","id":7,"priority":2}|} with
  | Ok
      {
        id = Json.Int 7;
        priority = 2;
        deadline_ms = None;
        client = "";
        trace_id = None;
        body = Request.Scenario (Request.Simulate p);
      } ->
    Alcotest.(check int) "default mesh" 6 p.Request.mesh_size;
    Alcotest.(check string) "default policy" "ear" p.Request.policy
  | _ -> Alcotest.fail "simulate defaults");
  (match Request.of_line {|{"scenario":"fig7","params":{"sizes":[4,5]}}|} with
  | Ok { body = Request.Scenario (Request.Fig7 { sizes; _ }); _ } ->
    Alcotest.(check (list int)) "sizes" [ 4; 5 ] sizes
  | _ -> Alcotest.fail "fig7 params");
  (match Request.of_line {|{"scenario":"shutdown"}|} with
  | Ok { body = Request.Control Request.Shutdown; id = Json.Null; priority = 0; _ } ->
    ()
  | _ -> Alcotest.fail "shutdown control")

let test_request_errors () =
  let code line =
    match Request.of_line line with
    | Ok _ -> Alcotest.failf "accepted: %s" line
    | Error e -> e.Request.error_code
  in
  Alcotest.(check string) "bad json" "parse_error" (code "{nope");
  Alcotest.(check string) "non-object" "invalid_request" (code "[1,2]");
  Alcotest.(check string) "unknown scenario" "invalid_request"
    (code {|{"scenario":"warp"}|});
  Alcotest.(check string) "typed field" "invalid_request"
    (code {|{"scenario":"simulate","params":{"mesh_size":"big"}}|});
  (* the id survives a shape error so the response stays correlatable *)
  match Request.of_line {|{"scenario":"warp","id":9}|} with
  | Error { Request.error_id = Json.Int 9; _ } -> ()
  | _ -> Alcotest.fail "id lost on invalid request"

let test_fingerprint_canonicalization () =
  let fp line =
    match Request.of_line line with
    | Ok { body = Request.Scenario s; _ } -> (
      match Handlers.fingerprint s with
      | Ok fp -> fp
      | Error m -> Alcotest.failf "fingerprint failed: %s" m)
    | _ -> Alcotest.failf "not a scenario: %s" line
  in
  (* spelling out the defaults, reordering fields, adding unknown keys:
     same computation, same content address *)
  let a = fp {|{"scenario":"simulate"}|} in
  let b = fp {|{"scenario":"simulate","params":{"seed":1,"mesh_size":6},"id":3}|} in
  let c = fp {|{"scenario":"simulate","params":{"mesh_size":6,"future_knob":true}}|} in
  Alcotest.(check string) "defaults spelled out" a b;
  Alcotest.(check string) "field order and unknown keys" a c;
  let d = fp {|{"scenario":"simulate","params":{"seed":2}}|} in
  Alcotest.(check bool) "different seed, different address" true (a <> d)

(* - exact keys - *)

let simulate_gen =
  QCheck.Gen.(
    map
      (fun ((mesh_size, seed, policy, battery, controllers),
            (concurrent_jobs, ber, wearout, fault_seed, retries)) ->
        {
          Request.mesh_size;
          seed;
          policy;
          battery;
          controllers;
          concurrent_jobs;
          ber;
          wearout;
          fault_seed;
          retries;
        })
      (pair
         (tup5 (int_range 3 5) (int_range 1 1000)
            (oneofl [ "ear"; "sdr"; "EAR"; "Sdr"; "maximin" ])
            (oneofl [ "thin-film"; "thin_film"; "ThinFilm"; "ideal" ])
            (int_range 0 2))
         (tup5 (int_range 1 2)
            (oneof [ return 0.; float_bound_inclusive 1e-3 ])
            (oneof [ return 0.; float_bound_inclusive 1e-5 ])
            (int_range 0 1000) (int_range 0 3))))

let simulate_print (p : Request.simulate_params) =
  Printf.sprintf
    "{mesh=%d seed=%d policy=%S battery=%S controllers=%d jobs=%d ber=%h \
     wearout=%h fault_seed=%d retries=%d}"
    p.mesh_size p.seed p.policy p.battery p.controllers p.concurrent_jobs p.ber
    p.wearout p.fault_seed p.retries

let simulate_arbitrary = QCheck.make ~print:simulate_print simulate_gen
let key p = Handlers.key (Request.Simulate p)

(* One-field changes, each to a value that means a different run.  The
   fault seed only shapes a run whose rates enable faults. *)
let single_field_changes (p : Request.simulate_params) =
  let other_policy = if String.lowercase_ascii p.policy = "sdr" then "ear" else "sdr" in
  let other_battery =
    if String.lowercase_ascii p.battery = "ideal" then "thin-film" else "ideal"
  in
  [
    ("mesh_size", { p with mesh_size = p.mesh_size + 1 });
    ("seed", { p with seed = p.seed + 1 });
    ("policy", { p with policy = other_policy });
    ("battery", { p with battery = other_battery });
    ("controllers", { p with controllers = p.controllers + 1 });
    ("concurrent_jobs", { p with concurrent_jobs = p.concurrent_jobs + 1 });
    ("ber", { p with ber = Float.succ p.ber });
    ("wearout", { p with wearout = Float.succ p.wearout });
    ("retries", { p with retries = p.retries + 1 });
  ]
  @
  if p.ber = 0. && p.wearout = 0. then []
  else [ ("fault_seed", { p with fault_seed = p.fault_seed + 1 }) ]

let key_separates_single_field_changes =
  QCheck.Test.make ~name:"key: any one-field change changes the key" ~count:300
    simulate_arbitrary (fun p ->
      List.for_all
        (fun (field, q) ->
          key p <> key q || QCheck.Test.fail_reportf "%s change kept the key" field)
        (single_field_changes p))

(* The same run spelled differently: name aliases in any case, and a
   fault seed that no rate uses. *)
let respell (p : Request.simulate_params) =
  let flip_case s =
    String.mapi
      (fun i c -> if i mod 2 = 0 then Char.uppercase_ascii c else Char.lowercase_ascii c)
      s
  in
  let battery =
    match String.lowercase_ascii p.battery with
    | "thin-film" -> "thin_film"
    | "thin_film" | "thinfilm" -> "THIN-film"
    | other -> flip_case other
  in
  let fault_seed =
    if p.ber = 0. && p.wearout = 0. then p.fault_seed + 17 else p.fault_seed
  in
  { p with policy = flip_case p.policy; battery; fault_seed }

let result_bytes_of p =
  Etx_util.Pool.with_pool ~domains:1 (fun pool ->
      match Handlers.execute ~pool (Request.Simulate p) with
      | Ok r -> Json.to_string r
      | Error m -> QCheck.Test.fail_reportf "valid params rejected: %s" m)

let equal_keys_equal_results =
  QCheck.Test.make ~name:"key: equal keys give byte-identical results" ~count:12
    (QCheck.make ~print:simulate_print
       (QCheck.Gen.map
          (fun p -> { p with Request.mesh_size = 4; concurrent_jobs = 1 })
          simulate_gen))
    (fun p ->
      let q = respell p in
      key p = key q && result_bytes_of p = result_bytes_of q)

let test_key_matches_fingerprint () =
  let p =
    {
      Request.mesh_size = 4;
      seed = 1;
      policy = "ear";
      battery = "thin-film";
      controllers = 0;
      concurrent_jobs = 1;
      ber = 1e-4;
      wearout = 0.;
      fault_seed = 0;
      retries = 3;
    }
  in
  (* fingerprint validates, then answers the key itself *)
  (match Handlers.fingerprint (Request.Simulate p) with
  | Ok fp -> Alcotest.(check string) "fingerprint = key" (key p) fp
  | Error m -> Alcotest.failf "valid params rejected: %s" m);
  Alcotest.(check bool) "invalid params rejected" true
    (Result.is_error
       (Handlers.fingerprint (Request.Simulate { p with policy = "quantum" })))

(* - server batches - *)

let config ?(queue_depth = 8) ?(cache_capacity = 16) ?store_dir () =
  {
    Server.default_config with
    Server.queue_depth;
    cache_capacity;
    store_dir;
  }

let with_server ?queue_depth ?cache_capacity ?store_dir ?now f =
  let server = Server.create ?now (config ?queue_depth ?cache_capacity ?store_dir ()) in
  Fun.protect ~finally:(fun () -> Server.shutdown server) (fun () -> f server)

let parse_response line =
  match Json.parse_result line with
  | Ok j -> j
  | Error m -> Alcotest.failf "bad response %s: %s" line m

let str_member key j =
  match Option.bind (Json.member key j) Json.to_str with
  | Some s -> s
  | None -> Alcotest.failf "missing %S in %s" key (Json.to_string j)

let result_bytes j =
  match Json.member "result" j with
  | Some r -> Json.to_string r
  | None -> Alcotest.failf "missing result in %s" (Json.to_string j)

let elapsed_ms j =
  match Option.bind (Json.member "elapsed_ms" j) Json.to_float with
  | Some f -> f
  | None -> Alcotest.failf "missing elapsed_ms in %s" (Json.to_string j)

(* the raw bytes of a response line's [result], the envelope's last field *)
let raw_result line =
  let marker = {|,"result":|} in
  let rec find i =
    if i + String.length marker > String.length line then
      Alcotest.failf "no result in %s" line
    else if String.sub line i (String.length marker) = marker then
      i + String.length marker
    else find (i + 1)
  in
  let start = find 0 in
  String.sub line start (String.length line - start - 1)

let simulate_line = {|{"scenario":"simulate","params":{"mesh_size":4},"id":1}|}

let test_miss_then_hit_bit_identical () =
  with_server (fun server ->
      let respond () =
        match Server.handle_batch server [ simulate_line ] with
        | [ r ] -> r
        | _ -> Alcotest.fail "one response expected"
      in
      let miss_line = respond () in
      let hit_line = respond () in
      let miss = parse_response miss_line and hit = parse_response hit_line in
      Alcotest.(check string) "first computes" "miss" (str_member "cache" miss);
      Alcotest.(check string) "second replays" "hit" (str_member "cache" hit);
      Alcotest.(check string) "bit-identical result" (raw_result miss_line)
        (raw_result hit_line);
      (* the spliced envelope is exactly what the JSON printer writes *)
      Alcotest.(check string) "canonical hit bytes" hit_line (Json.to_string hit);
      Alcotest.(check bool) "hit is faster" true (elapsed_ms hit <= elapsed_ms miss);
      (* the stats request confirms the counter moved *)
      match Server.handle_batch server [ {|{"scenario":"stats"}|} ] with
      | [ r ] ->
        let stats = parse_response r in
        let cache_hits =
          Option.bind (Json.member "result" stats) (fun result ->
              Option.bind (Json.member "cache" result) (fun c ->
                  Option.bind (Json.member "hits" c) Json.to_int))
        in
        Alcotest.(check (option int)) "hit counted" (Some 1) cache_hits
      | _ -> Alcotest.fail "stats response expected")

let cache_of server line =
  match Server.handle_batch server [ line ] with
  | [ r ] -> str_member "cache" (parse_response r)
  | _ -> Alcotest.fail "one response expected"

let test_near_ber_is_a_miss () =
  (* %g printed both rates as 0.0001: the second request used to replay
     the first one's result *)
  with_server (fun server ->
      let line ber =
        Printf.sprintf
          {|{"scenario":"simulate","params":{"mesh_size":4,"ber":%s,"fault_seed":7}}|}
          ber
      in
      Alcotest.(check string) "first computes" "miss" (cache_of server (line "1e-4"));
      Alcotest.(check string) "same rate hits" "hit" (cache_of server (line "0.0001"));
      Alcotest.(check string) "a near rate is another computation" "miss"
        (cache_of server (line "1.0000001e-4")))

let test_aliases_share_an_entry () =
  with_server (fun server ->
      let line policy battery =
        Printf.sprintf
          {|{"scenario":"simulate","params":{"mesh_size":4,"policy":"%s","battery":"%s"}}|}
          policy battery
      in
      Alcotest.(check string) "first computes" "miss"
        (cache_of server (line "EAR" "thin_film"));
      Alcotest.(check string) "policy case alias" "hit"
        (cache_of server (line "ear" "thin_film"));
      Alcotest.(check string) "battery spelling alias" "hit"
        (cache_of server (line "ear" "thin-film"));
      Alcotest.(check string) "both aliases" "hit"
        (cache_of server (line "Ear" "ThinFilm")))

let test_queue_full_burst () =
  with_server ~queue_depth:2 (fun server ->
      let line seed =
        Printf.sprintf
          {|{"scenario":"simulate","params":{"mesh_size":4,"seed":%d},"id":%d}|} seed
          seed
      in
      let responses =
        Server.handle_batch server [ line 1; line 2; line 3; line 4 ]
        |> List.map parse_response
      in
      let statuses = List.map (str_member "status") responses in
      Alcotest.(check (list string)) "two served, two rejected"
        [ "ok"; "ok"; "error"; "error" ] statuses;
      List.iteri
        (fun i r ->
          if i >= 2 then
            Alcotest.(check string)
              (Printf.sprintf "rejection %d is structured" i)
              "queue_full" (str_member "error" r))
        responses;
      (* ids echo in arrival order even for rejections *)
      Alcotest.(check (list int)) "arrival order kept" [ 1; 2; 3; 4 ]
        (List.map
           (fun r ->
             Option.get (Option.bind (Json.member "id" r) Json.to_int))
           responses);
      (* the server survives the burst and keeps serving *)
      match Server.handle_batch server [ line 3 ] with
      | [ r ] ->
        Alcotest.(check string) "still alive" "ok"
          (str_member "status" (parse_response r))
      | _ -> Alcotest.fail "one response expected")

let test_in_batch_coalescing () =
  (* caching disabled: duplicates must still compute only once *)
  with_server ~cache_capacity:0 (fun server ->
      let responses =
        Server.handle_batch server [ simulate_line; simulate_line ]
        |> List.map parse_response
      in
      match responses with
      | [ first; second ] ->
        Alcotest.(check string) "first computes" "miss" (str_member "cache" first);
        Alcotest.(check string) "duplicate coalesced" "coalesced"
          (str_member "cache" second);
        Alcotest.(check string) "same bytes" (result_bytes first)
          (result_bytes second)
      | _ -> Alcotest.fail "two responses expected")

let test_priority_ordering () =
  (* a stats request observes the counters at its own execution slot:
     with higher priority it runs before the scenario, with lower
     priority after — which pins the execution order *)
  let served_total_seen ~stats_priority server =
    let batch =
      [
        {|{"scenario":"simulate","params":{"mesh_size":4},"priority":0,"id":1}|};
        Printf.sprintf {|{"scenario":"stats","priority":%d,"id":2}|} stats_priority;
      ]
    in
    match Server.handle_batch server batch |> List.map parse_response with
    | [ _; stats ] ->
      Option.get
        (Option.bind (Json.member "result" stats) (fun r ->
             Option.bind (Json.member "served_total" r) Json.to_int))
    | _ -> Alcotest.fail "two responses expected"
  in
  with_server (fun server ->
      Alcotest.(check int) "stats first under high priority" 0
        (served_total_seen ~stats_priority:5 server));
  with_server (fun server ->
      Alcotest.(check int) "stats last under low priority" 1
        (served_total_seen ~stats_priority:(-5) server))

let test_error_responses () =
  with_server (fun server ->
      let response line =
        match Server.handle_batch server [ line ] with
        | [ r ] -> parse_response r
        | _ -> Alcotest.fail "one response expected"
      in
      let check_error name line code =
        let r = response line in
        Alcotest.(check string) (name ^ " status") "error" (str_member "status" r);
        Alcotest.(check string) (name ^ " code") code (str_member "error" r)
      in
      check_error "malformed" "{oops" "parse_error";
      check_error "unknown scenario" {|{"scenario":"warp"}|} "invalid_request";
      check_error "bad field type"
        {|{"scenario":"simulate","params":{"seed":"one"}}|}
        "invalid_request";
      check_error "semantic validation"
        {|{"scenario":"simulate","params":{"policy":"quantum"}}|}
        "invalid_request";
      check_error "negative mesh"
        {|{"scenario":"simulate","params":{"mesh_size":-4}}|}
        "invalid_request";
      (* audit cadence is only validated at execution time, after the
         fingerprint: the structured failure path *)
      check_error "execution failure" {|{"scenario":"audit","params":{"every":0}}|}
        "failed")

let test_lru_bound_end_to_end () =
  with_server ~cache_capacity:1 (fun server ->
      let line seed =
        Printf.sprintf {|{"scenario":"simulate","params":{"mesh_size":4,"seed":%d}}|}
          seed
      in
      ignore (Server.handle_batch server [ line 1 ]);
      ignore (Server.handle_batch server [ line 2 ]);
      (* seed 1 was evicted by seed 2: recomputed, not replayed *)
      match Server.handle_batch server [ line 1 ] with
      | [ r ] ->
        Alcotest.(check string) "evicted entry recomputes" "miss"
          (str_member "cache" (parse_response r))
      | _ -> Alcotest.fail "one response expected")

let test_stats_shape () =
  with_server (fun server ->
      ignore (Server.handle_batch server [ simulate_line ]);
      match Server.handle_batch server [ {|{"scenario":"stats","id":"s"}|} ] with
      | [ r ] ->
        let stats = parse_response r in
        let result = Option.get (Json.member "result" stats) in
        List.iter
          (fun key ->
            Alcotest.(check bool) (key ^ " present") true
              (Json.member key result <> None))
          [
            "queue_depth";
            "admitted_total";
            "rejected_total";
            "served_total";
            "errors_total";
            "pool_domains";
            "cache";
            "scenarios";
          ];
        let simulate =
          Option.bind (Json.member "scenarios" result) (Json.member "simulate")
        in
        (match simulate with
        | None -> Alcotest.fail "simulate latency bucket missing"
        | Some bucket ->
          List.iter
            (fun key ->
              Alcotest.(check bool) (key ^ " present") true
                (Json.member key bucket <> None))
            [ "count"; "mean_ms"; "p50_ms"; "p90_ms"; "p99_ms"; "max_ms" ])
      | _ -> Alcotest.fail "stats response expected")

let test_shutdown_request () =
  with_server (fun server ->
      Alcotest.(check bool) "running" false (Server.stopped server);
      (match Server.handle_batch server [ {|{"scenario":"shutdown"}|} ] with
      | [ r ] ->
        Alcotest.(check string) "acknowledged" "ok"
          (str_member "status" (parse_response r))
      | _ -> Alcotest.fail "one response expected");
      Alcotest.(check bool) "stopping" true (Server.stopped server))

let test_create_validation () =
  List.iter
    (fun (name, cfg) ->
      match Server.create cfg with
      | server ->
        Server.shutdown server;
        Alcotest.failf "%s accepted" name
      | exception Invalid_argument _ -> ())
    [
      ("zero queue depth", { Server.default_config with queue_depth = 0 });
      ("negative cache", { Server.default_config with cache_capacity = -1 });
      ("zero domains", { Server.default_config with domains = 0 });
      ("zero metrics pacing", { Server.default_config with metrics_every_s = 0. });
      ("negative metrics pacing", { Server.default_config with metrics_every_s = -1. });
      ("NaN metrics pacing", { Server.default_config with metrics_every_s = Float.nan });
    ]

let suite =
  [
    ( "service/cache",
      [
        Alcotest.test_case "basics" `Quick test_cache_basics;
        Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
        Alcotest.test_case "disabled and invalid" `Quick test_cache_disabled_and_invalid;
      ] );
    ( "service/request",
      [
        Alcotest.test_case "parsing" `Quick test_request_parsing;
        Alcotest.test_case "errors" `Quick test_request_errors;
        Alcotest.test_case "fingerprint canonicalization" `Quick
          test_fingerprint_canonicalization;
        Alcotest.test_case "key matches fingerprint" `Quick
          test_key_matches_fingerprint;
        QCheck_alcotest.to_alcotest key_separates_single_field_changes;
        QCheck_alcotest.to_alcotest equal_keys_equal_results;
      ] );
    ( "service/server",
      [
        Alcotest.test_case "miss then hit, bit-identical" `Quick
          test_miss_then_hit_bit_identical;
        Alcotest.test_case "near ber is a miss" `Quick test_near_ber_is_a_miss;
        Alcotest.test_case "aliases share an entry" `Quick test_aliases_share_an_entry;
        Alcotest.test_case "queue_full burst" `Quick test_queue_full_burst;
        Alcotest.test_case "in-batch coalescing" `Quick test_in_batch_coalescing;
        Alcotest.test_case "priority ordering" `Quick test_priority_ordering;
        Alcotest.test_case "error responses" `Quick test_error_responses;
        Alcotest.test_case "lru bound end to end" `Quick test_lru_bound_end_to_end;
        Alcotest.test_case "stats shape" `Quick test_stats_shape;
        Alcotest.test_case "shutdown request" `Quick test_shutdown_request;
        Alcotest.test_case "create validation" `Quick test_create_validation;
      ] );
  ]

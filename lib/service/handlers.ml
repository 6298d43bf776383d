module Json = Etx_util.Json
module Experiments = Etextile.Experiments
module Calibration = Etextile.Calibration

let policy_of_string s =
  match String.lowercase_ascii s with
  | "ear" -> Ok (Etx_routing.Policy.ear ())
  | "sdr" -> Ok (Etx_routing.Policy.sdr ())
  | "ear2" -> Ok (Etx_routing.Policy.ear_squared ())
  | "inverse" -> Ok (Etx_routing.Policy.inverse_level ())
  | "linear" -> Ok (Etx_routing.Policy.linear_drain ())
  | "maximin" -> Ok (Etx_routing.Policy.maximin ())
  | other -> Error (Printf.sprintf "unknown policy %S" other)

(* every spelling [battery_of_string] accepts, mapped to one name *)
let battery_name s =
  match String.lowercase_ascii s with
  | "thin-film" | "thin_film" | "thinfilm" -> "thin-film"
  | other -> other

let battery_of_string s =
  match battery_name s with
  | "thin-film" ->
    Ok (Etx_battery.Battery.Thin_film Etx_battery.Battery.default_thin_film)
  | "ideal" -> Ok Etx_battery.Battery.Ideal
  | other -> Error (Printf.sprintf "unknown battery model %S" other)

let ( let* ) r f = Result.bind r f

(* Build the calibrated config for a simulate request; every semantic
   check lives in the constructors, surfaced as [Error]. *)
let simulate_config (p : Request.simulate_params) =
  let* policy = policy_of_string p.policy in
  let* battery_kind = battery_of_string p.battery in
  match
    let fault =
      if p.ber = 0. && p.wearout = 0. then None
      else
        Some
          (Etx_fault.Spec.make ~seed:p.fault_seed ~bit_error_rate:p.ber
             ~link_wearout_rate:p.wearout ())
    in
    let controllers =
      if p.controllers = 0 then Etx_etsim.Config.Infinite_controller
      else Etx_etsim.Config.Battery_controllers { count = p.controllers }
    in
    Calibration.config ~policy ~battery_kind ~controllers ~seed:p.seed
      ~concurrent_jobs:p.concurrent_jobs ?fault ~max_retransmissions:p.retries
      ~mesh_size:p.mesh_size ()
  with
  | config -> Ok config
  | exception Invalid_argument message -> Error message

(* The simulate key is the request's parameters themselves, which
   [simulate_config] maps to a config deterministically: names are
   normalised exactly as the parsers above normalise them (and quoted,
   so no string can forge another field), floats print exactly with
   %h, and the fault seed appears only when a rate makes the config
   carry a fault spec.  Bump the tag whenever that mapping changes. *)
let simulate_key (p : Request.simulate_params) =
  let fault =
    if p.ber = 0. && p.wearout = 0. then "fault=none"
    else Printf.sprintf "ber=%h;wearout=%h;fault_seed=%d" p.ber p.wearout p.fault_seed
  in
  Printf.sprintf
    "simulate-v2;mesh=%d;seed=%d;policy=%S;battery=%S;controllers=%d;jobs=%d;%s;\
     retries=%d"
    p.mesh_size p.seed (String.lowercase_ascii p.policy) (battery_name p.battery)
    p.controllers p.concurrent_jobs fault p.retries

let key (scenario : Request.scenario) =
  match scenario with
  | Request.Simulate p -> simulate_key p
  | Request.Fig7 { sizes; seeds } -> Experiments.fig7_fingerprint ~sizes ~seeds
  | Request.Resilience { mesh_size; bit_error_rates; wearout_rates; fault_seed; seeds }
    ->
    Experiments.resilience_fingerprint ~mesh_size ~bit_error_rates ~wearout_rates
      ~fault_seed ~seeds
  | Request.Audit { sizes; seeds; every } ->
    Experiments.audit_fingerprint ~sizes ~seeds ~every
  | Request.Upper_bound { sizes } ->
    Printf.sprintf "upper-bound;sizes=%s"
      (String.concat "," (List.map string_of_int sizes))

let fingerprint (scenario : Request.scenario) =
  match scenario with
  | Request.Simulate p ->
    let* _config = simulate_config p in
    Ok (key scenario)
  | Request.Fig7 _ | Request.Resilience _ | Request.Audit _ | Request.Upper_bound _ ->
    Ok (key scenario)

(* - result encoders - *)

let f x = Json.float_lenient x
let i n = Json.Int n

let fig7_row (r : Experiments.fig7_row) =
  Json.Obj
    [
      ("mesh_size", i r.mesh_size);
      ("ear_jobs", f r.ear_jobs);
      ("sdr_jobs", f r.sdr_jobs);
      ("gain", f r.gain);
      ("ear_overhead", f r.ear_overhead);
      ("paper_ear_jobs", f r.paper_ear_jobs);
      ("paper_overhead", f r.paper_overhead);
    ]

let resilience_row (r : Experiments.resilience_row) =
  Json.Obj
    [
      ("axis", Json.String r.axis);
      ("rate", f r.rate);
      ("ear_jobs", f r.ear_jobs);
      ("sdr_jobs", f r.sdr_jobs);
      ("gain", f r.r_gain);
      ("retransmissions", f r.retransmissions);
      ("packets_dropped", f r.packets_dropped);
      ("wearouts", f r.wearouts);
    ]

let audit_row (r : Experiments.audit_row) =
  Json.Obj
    [
      ("mesh_size", i r.audit_mesh_size);
      ("seed", i r.audit_seed);
      ("passes", i r.passes);
      ("violations_total", i r.audit_violations_total);
      ("violations", Json.List (List.map (fun v -> Json.String v) r.audit_violations));
    ]

let thm1_row (r : Experiments.thm1_row) =
  Json.Obj
    [
      ("mesh_size", i r.mesh_size);
      ("j_star", f r.j_star);
      ( "optimal_duplicates",
        Json.List (Array.to_list (Array.map f r.optimal_duplicates)) );
      ( "checkerboard_duplicates",
        Json.List (Array.to_list (Array.map i r.checkerboard_duplicates)) );
      ("checkerboard_bound", f r.checkerboard_bound);
    ]

let rows encode xs = Json.Obj [ ("rows", Json.List (List.map encode xs)) ]

let execute ~pool (scenario : Request.scenario) =
  match scenario with
  | Request.Simulate p ->
    let* config = simulate_config p in
    Ok (Etx_etsim.Metrics.to_json (Etx_etsim.Engine.simulate config))
  | Request.Fig7 { sizes; seeds } -> (
    match Experiments.fig7 ~sizes ~seeds ~pool () with
    | result -> Ok (rows fig7_row result)
    | exception Invalid_argument message -> Error message)
  | Request.Resilience { mesh_size; bit_error_rates; wearout_rates; fault_seed; seeds }
    -> (
    match
      Experiments.resilience ~mesh_size ~bit_error_rates ~wearout_rates ~fault_seed
        ~seeds ~pool ()
    with
    | result -> Ok (rows resilience_row result)
    | exception Invalid_argument message -> Error message)
  | Request.Audit { sizes; seeds; every } -> (
    match Experiments.audit_runs ~sizes ~seeds ~every ~pool () with
    | result ->
      let total =
        List.fold_left
          (fun acc (r : Experiments.audit_row) -> acc + r.audit_violations_total)
          0 result
      in
      Ok
        (Json.Obj
           [
             ("rows", Json.List (List.map audit_row result));
             ("violations_total", i total);
           ])
    | exception Invalid_argument message -> Error message)
  | Request.Upper_bound { sizes } -> (
    match Experiments.thm1 ~sizes () with
    | result -> Ok (rows thm1_row result)
    | exception Invalid_argument message -> Error message)

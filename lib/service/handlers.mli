(** Scenario execution: from a parsed {!Request.scenario} to a canonical
    key and a structured JSON result.

    Handlers are pure request → value functions — no printing, no
    process exit — which is what lets the server cache, deduplicate and
    batch them.  Sweeps fan out over the server's shared persistent
    {!Etx_util.Pool} instead of spawning domains per request. *)

val policy_of_string : string -> (Etx_routing.Policy.t, string) result
(** "ear", "sdr", "ear2", "inverse", "linear", "maximin" (the CLI's
    vocabulary). *)

val battery_of_string : string -> (Etx_battery.Battery.kind, string) result
(** "thin-film" (also "thin_film"/"thinfilm") or "ideal". *)

val key : Request.scenario -> string
(** Exact, versioned content address of the scenario's {e result},
    computed from the parsed parameters alone (no configuration is
    built, nothing is validated).  Simulate keys print every parameter
    that reaches the configuration: floats exactly ([%h]), policy and
    battery names normalised with the aliases {!policy_of_string} and
    {!battery_of_string} accept, and the fault seed only when a
    non-zero rate enables faults.  Sweeps use their manifest
    fingerprints from {!Etextile.Experiments}.  Two scenarios with equal
    keys produce bit-identical results, so a cache may replay one for
    the other; an invalid scenario's key never equals a valid one's.
    Total. *)

val fingerprint : Request.scenario -> (string, string) result
(** Validate, then [Ok (key scenario)].  [Error] when the parameters
    are semantically invalid (the config constructor rejected them). *)

val execute :
  pool:Etx_util.Pool.t -> Request.scenario -> (Etx_util.Json.t, string) result
(** Run the scenario and return its structured result.  [Error] carries
    the validation message for semantically invalid parameters. *)

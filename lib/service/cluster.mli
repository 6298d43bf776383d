(** The cluster front-end: one router, N backend daemons.

    The router speaks the same newline-delimited JSON protocol as a
    single {!Server} — clients cannot tell the difference — and shards
    scenario requests across backend daemons by {!Handlers.key} on
    a consistent-hash {!Ring}, so a given computation always lands on
    the same backend (whose LRU stays warm) and membership changes only
    remap the failed backend's arc.

    Dispatch is concurrent and pipelined: the router holds one
    persistent connection per backend and writes each request to it
    without waiting for earlier replies, so every backend computes at
    once.  A backend answers each connection in order, so replies are
    matched FIFO per connection; a client batch is answered when its
    last request is, and each client connection gets its answers in
    send order ({!Serve_loop}).  Health probes travel over the same
    connection.

    Failure handling, in layers:

    - {b health checking}: each backend is pinged when [health_period_s]
      has elapsed since it was last heard from; probe outcomes feed the
      same {!Health} / {!Breaker} state as real requests, so a restarted
      backend is re-admitted within one period.
    - {b retries with backoff}: a failed dispatch (connect error,
      timeout, torn connection) is retried against the next backend in
      ring-preference order, up to [attempts] total, after a
      decorrelated-jitter {!Etx_util.Backoff} delay drawn per request
      and waited out as a timer of the serving loop.  Only the head of a
      connection's FIFO is timed, from when it becomes the head, so a
      request queued behind others is not late.  When a backend
      connection drops, or its head has waited [request_timeout_s], the
      connection is closed, one transport failure is counted, and every
      request in flight on it moves to its next candidate.  A probe
      unanswered after [probe_timeout_s] is a failed probe, but it does
      not close the connection: the requests behind it stay.
    - {b circuit breaking}: consecutive transport failures trip a
      per-backend {!Breaker}; an open breaker refuses instantly instead
      of paying the timeout again, and a half-open probe re-admits the
      backend after [breaker_cooldown_s].
    - {b load shedding}: at most [queue_depth] scenario requests per
      batch are admitted, shared fairly across [client] keys
      (round-robin, one per client per round); the rest get an explicit
      [degraded] error carrying [retry_after_ms] instead of hanging.
    - {b deadlines}: a request's [deadline_ms] bounds the whole routed
      attempt (a deadline falling in a backoff wait ends it); expiry —
      before dispatch or while in flight — yields [deadline_exceeded],
      never a hang.  A late reply is read and dropped, so the
      connection stays aligned.

    A request that exhausts every layer gets a [degraded] error with
    [retry_after_ms] — an explicit "come back later", never silence.
    Transport-level failures never lose an accepted request: either
    some backend returns its (bit-identical, content-addressed) result,
    or the client receives a structured error telling it to retry. *)

type config = {
  backends : string list;  (** backend Unix-socket paths; at least one *)
  replicas : int;  (** ring virtual nodes per backend *)
  attempts : int;  (** total dispatch attempts per request; >= 1 *)
  connect_timeout_s : float;
  request_timeout_s : float;
      (** longest the request at the head of a backend connection may
          wait for its reply before that connection is closed *)
  probe_timeout_s : float;
      (** health-check ping deadline, from when the ping heads its
          connection; a late ping is a failed probe *)
  health_period_s : float;  (** quiet time before a backend is probed *)
  failure_threshold : int;  (** consecutive failures to mark Down / trip open *)
  breaker_cooldown_s : float;
  backoff_base_ms : float;
  backoff_cap_ms : float;
  seed : int;  (** backoff-jitter PRNG seed (replayable retry pacing) *)
  queue_depth : int;  (** admitted scenario requests per batch *)
  retry_after_ms : int;  (** hint carried by degraded responses *)
  forward_shutdown : bool;
      (** broadcast a [shutdown] control to every backend too (the
          all-in-one [cluster] subcommand owns its backends; a [route]
          front-end over foreign daemons does not) *)
  metrics_file : string option;
      (** when set, the serving loop periodically commits an
          [Etx_obs.Expo] JSON snapshot to this path (atomic), plus a
          final one as it exits. *)
  metrics_every_s : float;  (** snapshot pacing in seconds; must be
          > 0, only read when [metrics_file] is set *)
}

val default_config : backends:string list -> config
(** 64 ring replicas, 4 attempts, 1 s connect / 30 s request / 1 s
    probe timeouts, 2 s health period, threshold 3, 5 s cooldown,
    25–1000 ms backoff, queue depth 64, retry-after 250 ms, no
    shutdown forwarding, no metrics file (5 s pacing when one is
    configured). *)

type rpc = path:string -> timeout_s:float -> string -> (string, string) result
(** One request line in, one response line out, within [timeout_s]
    seconds total.  [Error] is a transport-level failure description.
    Injectable so the failover logic is unit-testable without sockets:
    with an [rpc], each attempt completes inside the call.  Without
    one, the router uses its persistent backend connections. *)

type t

val create :
  ?now:(unit -> float) -> ?sleep:(float -> unit) -> ?rpc:rpc -> config -> t
(** [now]/[sleep] (seconds) default to [Unix.gettimeofday] and
    [Unix.sleepf]; inject both to unit-test time-dependent behavior.
    [sleep] is only called by the synchronous {!handle_batch}, to wait
    out a backoff while nothing is on the wire; the serving loop never
    sleeps.
    @raise Invalid_argument on an empty backend list, duplicate
    backends, or non-positive numeric settings ([metrics_every_s] NaN
    included). *)

val handle_batch : t -> string list -> string list
(** Route one batch (same protocol as {!Server.handle_batch}): control
    requests are answered locally, scenario requests are forwarded to
    their ring backend with the failure handling above.  Forwarded
    responses pass through byte-for-byte.  A scenario request whose
    parameters fail validation is answered [invalid_request] locally and
    never dispatched; the router remembers a bounded set of keys it has
    validated, so a repeated key is not validated again.  The call
    submits the batch to the same dispatch state machine the serving
    loop drives and drives it until the batch completes. *)

val probe : t -> unit
(** Health-check every idle backend whose [health_period_s] has
    elapsed.  Called automatically at batch start and on every turn of
    the serving loop. *)

val stats_json : t -> Etx_util.Json.t
(** Cluster-level stats: per-backend health/breaker state, in-flight
    count and counters (routed, failovers, shed, degraded,
    deadline-exceeded, probes). *)

val stopped : t -> bool

val request_stop : t -> unit
(** Ask the serving loop to stop reading and exit once every accepted
    batch is answered: the graceful-drain hook for a SIGTERM handler.
    Safe from a signal handler or another domain. *)

val handler : t -> Serve_loop.handler
(** The router as a {!Serve_loop} handler: batches from every client
    connection are dispatched concurrently over the backend
    connections, whose replies, timeouts, backoff waits and probes the
    loop drives on its turns. *)

(** The persistent simulation server.

    A long-lived daemon that answers scenario requests without paying
    process startup or recomputing identical work.  The protocol is
    newline-delimited JSON in both directions; a {e batch} is a run of
    request lines terminated by a blank line (or end of stream), and
    responses come back in arrival order, one line per request.

    Inside one batch the server applies, in order:

    - {b admission control}: at most [queue_depth] scenario requests are
      admitted; the rest are answered immediately with a structured
      [queue_full] error and the server keeps serving — the queue never
      grows without bound.  Control requests (stats/ping/metrics/
      shutdown) are always admitted, so operators can observe a
      saturated server.
    - {b priority ordering}: admitted requests execute by descending
      [priority], ties in arrival order.
    - {b deduplication and caching}: each scenario's exact key
      ({!Handlers.key}, computed from the parsed parameters) is looked
      up among results served earlier in the same batch (a
      {e coalesced} duplicate is computed once even with caching
      disabled), then in the LRU result cache (a {e hit}), then in the
      durable store.  Every tier holds the result's serialized bytes,
      which a hit splices into its response unchanged.  Only a request
      that misses every tier is validated and computed; an invalid one
      is answered [invalid_request].

    All simulation work fans out over one shared persistent
    {!Etx_util.Pool} owned by the server for its whole life. *)

type config = {
  queue_depth : int;  (** admission bound per batch; at least 1 *)
  cache_capacity : int;  (** LRU entries; 0 disables caching *)
  domains : int;  (** worker domains of the shared pool *)
  store_dir : string option;
      (** durable {!Store} directory beneath the LRU: misses consult it
          before computing ([cache:"store"] in the response) and
          computed results are persisted to it, so restarts — and every
          other backend sharing the directory — keep the cache.  [None]
          disables durability. *)
  metrics_file : string option;
      (** when set, the serving loop periodically commits an
          [Etx_obs.Expo] JSON snapshot to this path (atomic temp +
          fsync + rename), plus a final one as it exits — the
          post-mortem record for chaos runs.  [None] disables it. *)
  metrics_every_s : float;  (** snapshot pacing in seconds; must be
          > 0, only read when [metrics_file] is set *)
}

val default_config : config
(** queue depth 64, cache capacity 128, one worker domain, no durable
    store, no metrics file (5 s pacing when one is configured).  The
    [stats] percentiles always cover each scenario's latest 512
    requests. *)

type t

val create : ?now:(unit -> float) -> config -> t
(** Start a server: opens the durable store (if configured) and spawns
    the worker pool.  [now] injects the clock used for latency
    measurement and deadline accounting (seconds; defaults to
    [Unix.gettimeofday]) so tests can be deterministic.
    @raise Invalid_argument on non-positive [queue_depth] or [domains],
    negative [cache_capacity], or [metrics_every_s] not [> 0] (NaN
    included).
    @raise Sys_error if [store_dir] cannot be created. *)

val handle_batch : t -> string list -> string list
(** Serve one batch: request lines in, response lines out (same length,
    arrival order).  Never raises on malformed input — bad lines get
    error responses.  A scenario request whose [deadline_ms] has already
    elapsed (measured from batch receipt) when its execution slot comes
    up is shed with a [deadline_exceeded] error before any cache lookup
    or compute. *)

val stopped : t -> bool
(** A [shutdown] request has been served; transports should stop
    reading and call {!shutdown}. *)

val request_stop : t -> unit
(** Ask the serving loop to exit after the batch in flight completes —
    the graceful-drain hook for a SIGTERM handler: accepted work is
    finished and answered, nothing new is read.  Safe from a signal
    handler or another domain. *)

val shutdown : t -> unit
(** Release the worker pool.  Idempotent. *)

val handler : t -> Serve_loop.handler
(** The server as a {!Serve_loop} handler: each batch is answered
    synchronously by {!handle_batch}, in arrival order per connection;
    the loop serves many connections at once, so a client that holds
    its connection open idle delays nobody else.  Pass it to
    {!Serve_loop.run}; the caller still owns the server and calls
    {!shutdown}. *)

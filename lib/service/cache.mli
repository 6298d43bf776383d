(** Bounded content-addressed cache with LRU eviction.

    Keys are exact scenario keys ({!Handlers.key}), so two requests that
    mean the same computation — regardless of JSON field order, which
    defaults were spelled out or which name alias was used — share one
    entry.  The server stores each result's serialized bytes, so a hit
    replays them bit-identically with no re-serialisation; the router
    stores [unit] to remember which keys it has already validated.  The
    cache is bounded: beyond [capacity] entries the least-recently-used
    one is evicted, so a long-lived daemon's memory never grows with
    request history.

    Not thread-safe; the server touches it from its single batch loop. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity = 0] disables storage (every lookup misses, adds are
    dropped) — useful to measure uncached latency.
    @raise Invalid_argument on a negative capacity. *)

val find : 'a t -> string -> 'a option
(** Lookup; counts a hit or a miss and refreshes the entry's recency. *)

val add : 'a t -> string -> 'a -> unit
(** Insert or overwrite; evicts the least-recently-used entry when the
    bound is exceeded.  Never touches the hit/miss counters. *)

val length : 'a t -> int
val capacity : 'a t -> int
val hits : 'a t -> int
val misses : 'a t -> int
val evictions : 'a t -> int

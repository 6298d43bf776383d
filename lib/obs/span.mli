(** Structured trace spans with wire-propagated trace ids.

    A trace id (16 lowercase hex chars) is minted by {!new_trace_id} at
    the system's front door and travels in the wire protocol's optional
    [trace_id] request field.  {!with_trace} installs it in domain-local
    state for the duration of a request; {!span} then brackets units of
    work under it, recording parent/child structure through an explicit
    per-domain stack.

    Everything is a no-op while the registry is disarmed
    ([Obs.enabled () = false]) or when no trace is installed, so
    instrumented code calls {!span} unconditionally.  Finished spans
    land in a bounded global ring (newest win) read by {!recent}. *)

type span = {
  trace_id : string;
  span_id : int;  (** unique per process, never 0 *)
  parent_id : int;  (** 0 for a root span *)
  name : string;
  start_s : float;
  end_s : float;  (** [end_s > start_s] always: see {!now_s} *)
}

val new_trace_id : unit -> string

val with_trace : string option -> (unit -> 'a) -> 'a
(** [with_trace (Some id) f] runs [f] with [id] as the current trace
    (saving and restoring any enclosing one); [with_trace None f] is
    just [f ()]. *)

val current_trace_id : unit -> string option

val span : string -> (unit -> 'a) -> 'a
(** Bracket [f] in a named span under the current trace.  Records
    nothing — and costs one atomic load — when the registry is disarmed
    or no trace is installed.  Exceptions propagate; the span is still
    recorded. *)

type opened
(** A span started in one call and finished in another, for work that
    outlives the call that begins it (a request in flight on a pipelined
    connection). *)

val start : string -> opened option
(** Open a span under the current trace, parented like {!span}.  [None]
    — one atomic load — when the registry is disarmed or no trace is
    installed. *)

val child : opened option -> string -> opened option
(** Open a span under an opened parent, in its trace; [None] when the
    parent is [None]. *)

val finish : opened option -> unit
(** Record the span as ending now; no-op on [None]. *)

val now_s : unit -> float
(** Wall-clock seconds, monotone-clamped through a global atomic so
    consecutive reads are strictly increasing even across domains. *)

val recent : unit -> span list
(** Finished spans, oldest first, bounded (oldest dropped). *)

val reset : unit -> unit
(** Drop recorded spans (trace contexts are untouched). *)

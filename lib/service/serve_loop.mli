(** The one serving loop of [serve] and of the cluster router.

    A single thread runs [Unix.select] over the listening socket, every
    client connection, and the descriptors the handler registers (the
    router's backend connections).  The protocol is newline-delimited
    JSON: a {e batch} is a run of request lines ended by a blank line
    (or end of stream), answered with one response line per request.

    - {b Many connections at once.}  A client that holds its connection
      open idle, or sends half a line and stalls, delays nobody else.
    - {b Order.}  Batches on one connection are answered in arrival
      order, however the handler completes them.
    - {b Fairness.}  Each turn takes at most one ready batch per
      connection, so a long pipelined stream cannot starve a probe or a
      scrape.
    - {b Read-ahead.}  A connection holding [max_pending] unanswered
      request lines is not read until answers go out.
    - {b Bounded input.}  A line over {!max_line_bytes} bytes or a batch
      over {!max_batch_lines} lines is answered
      [{"id":null,"status":"error","error":"request_too_large",...}]
      after the connection's earlier answers, and only that connection
      is closed.
    - {b Ticks.}  The handler's tick, the stop flag and the metrics
      snapshot run on every turn, and no turn waits longer than a
      quarter second, whatever the clients do.
    - {b Drain.}  Once the handler reports [stopped], nothing new is read
      or accepted, but the complete batches already in a connection's
      read buffer are still taken (one per turn) and answered; an
      unfinished trailing batch is dropped.  The loop returns when every
      answer is written and the handler has nothing left to write.  A
      batch the handler still owes is never cut short; a peer that does
      not read its answers is cut off 10 s into the drain.

    Reads and writes go through {!Netio}, so the [net.read] /
    [net.write] / [net.accept] failpoints cover them; a failure costs
    the one connection. *)

val max_line_bytes : int
(** 65536. *)

val max_batch_lines : int
(** 1024. *)

type handler = {
  batch : string list -> (string list -> unit) -> unit;
      (** [batch lines answer]: handle one batch and call [answer] with
          the response lines (one per request line, in order), now or in
          a later turn. *)
  watch : unit -> Unix.file_descr list * Unix.file_descr list;
      (** Descriptors to select for reading and for writing this turn. *)
  ready : Unix.file_descr list -> Unix.file_descr list -> unit;
      (** The watched descriptors found readable / writable. *)
  tick : unit -> float;
      (** Run due timed work; return the seconds until more falls due
          ([infinity] if none). *)
  stopped : unit -> bool;
  max_pending : int;  (** read-ahead bound per connection *)
  metrics_file : string option;
      (** commit an [Etx_obs.Expo] snapshot here (atomically) every
          [metrics_every_s], and once more on exit *)
  metrics_every_s : float;
}

val run : ?socket_path:string -> handler -> unit
(** Serve until the handler is stopped and drained.  With
    [socket_path], bind a Unix socket there (an existing file is
    replaced) and accept connections; the file is removed on return.
    Without it, serve the one connection stdin/stdout and return at its
    end of stream once every batch is answered.  SIGPIPE is ignored,
    and the major GC runs at [space_overhead] 80 (the runtime's default
    is 120), which keeps a long-lived daemon's footprint near its small
    live heap.
    @raise Unix.Unix_error if the socket cannot be bound. *)

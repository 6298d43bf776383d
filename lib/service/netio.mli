(** Socket primitives for the serving loop, the router's backend
    connections and the [client] CLI.

    Blocking calls ({!connect}, {!write_all}, {!read_line}) take an
    absolute deadline and retry [EINTR] with what remains of it: a
    signal landing mid-wait (SIGCHLD from a supervised backend, SIGTERM
    starting a drain) neither fails the call nor extends the wait.
    Timeouts raise [Failure "connect timed out" / "write timed out" /
    "response timed out"]; [deadline = None] waits forever.

    Non-blocking calls ({!fill}, {!flush_some}) make one syscall each,
    for a [select] loop that already knows the descriptor is ready; they
    report [EAGAIN]/[EINTR] as no progress.  A {!reader} and a {!writer}
    are the reusable per-connection buffers: one of each per client
    connection of {!Serve_loop} and per backend connection of
    {!Cluster}.

    Failpoint sites: [net.connect], [net.write], [net.read],
    [net.accept].  Every read and write syscall here — blocking or
    not — passes [net.read] / [net.write]. *)

val connect :
  ?deadline:float -> now:(unit -> float) -> string -> (Unix.file_descr, string) result
(** Non-blocking connect to a Unix socket path; the returned descriptor
    is in non-blocking mode.  [Error] carries a short reason. *)

val write_all : ?deadline:float -> now:(unit -> float) -> Unix.file_descr -> bytes -> unit
(** Write every byte, absorbing short writes, [EAGAIN] and [EINTR].
    @raise Failure on deadline, [Unix.Unix_error] on hard failure. *)

type reader
(** Buffered line reader over a descriptor (bytes read past a newline
    are kept for the next line). *)

val reader : Unix.file_descr -> reader

val read_line : ?deadline:float -> now:(unit -> float) -> reader -> string option
(** Next newline-terminated line without the terminator; an unterminated
    trailing line is returned once; [None] at end of stream.
    @raise Failure on deadline, [Unix.Unix_error] on hard failure. *)

val fill : reader -> [ `Data | `Eof | `Again ]
(** One read syscall into the buffer.
    @raise Unix.Unix_error or [Sys_error] on a hard failure. *)

val take_line : reader -> string option
(** The next complete buffered line, without its newline; no syscall. *)

val buffered : reader -> int
(** Bytes buffered but not yet taken: after {!take_line} returned
    [None], the length of the unterminated line so far. *)

val at_eof : reader -> bool

val take_rest : reader -> string option
(** At end of stream, the unterminated trailing line, once. *)

type writer
(** Output queue over a descriptor. *)

val writer : Unix.file_descr -> writer
val queue : writer -> string -> unit

val queued : writer -> int
(** Bytes queued and not yet written. *)

val flush_some : writer -> unit
(** One write syscall of the queued bytes.
    @raise Unix.Unix_error or [Sys_error] on a hard failure. *)

val accept :
  ?timeout_s:float ->
  Unix.file_descr ->
  [ `Conn of Unix.file_descr | `Timeout | `Interrupted ]
(** Accept with a bounded wait.  [`Interrupted] reports an [EINTR]'d
    select so the caller's loop can re-check its stop flag. *)

(* The one serving loop of [serve] and [cluster]: Unix.select over the
   listener, every client connection and the descriptors the handler
   registers.

   A connection is a Netio reader and writer plus the FIFO of its
   batches awaiting answers.  Each turn takes at most one complete batch
   per connection, so a long pipelined stream cannot starve a probe or a
   scrape on another connection; answers leave in arrival order however
   the handler completes them.  The handler's tick, the stop flag and
   the metrics snapshot run on every turn, and a turn never waits longer
   than [max_wait_s], whatever the clients do. *)

module Json = Etx_util.Json
module Obs = Etx_obs.Obs
module Expo = Etx_obs.Expo

let max_line_bytes = 65536
let max_batch_lines = 1024
let max_connections = 256
let max_wait_s = 0.25
let drain_timeout_s = 10.

type handler = {
  batch : string list -> (string list -> unit) -> unit;
  watch : unit -> Unix.file_descr list * Unix.file_descr list;
  ready : Unix.file_descr list -> Unix.file_descr list -> unit;
  tick : unit -> float;
  stopped : unit -> bool;
  max_pending : int;
  metrics_file : string option;
  metrics_every_s : float;
}

let obs_snapshots =
  Obs.counter ~help:"Metrics snapshot files committed"
    "etx_obs_snapshots_written_total"

let obs_too_large =
  Obs.counter ~help:"Connections closed for an oversize line or batch"
    "etx_serve_request_too_large_total"

(* best-effort and atomic: the registry is live in memory, the file is
   for post-mortems, and a crash mid-write never leaves a torn file *)
let write_snapshot h =
  Option.iter
    (fun path ->
      match Expo.write_snapshot ~path () with
      | () -> Obs.inc obs_snapshots
      | exception Sys_error _ -> ())
    h.metrics_file

type reply = { mutable lines : string list option; size : int }

type conn = {
  rd : Netio.reader;
  wr : Netio.writer;
  fd_in : Unix.file_descr;
  fd_out : Unix.file_descr;
  owned : bool;  (* a socket the loop closes; not stdio *)
  replies : reply Queue.t;
  mutable partial : string list;  (* the batch read so far, newest first *)
  mutable partial_lines : int;
  mutable unanswered : int;  (* request lines in [replies] *)
  mutable reading : bool;
  mutable more : bool;  (* the read buffer may hold another line *)
  mutable broken : bool;
}

let conn ~owned fd_in fd_out =
  {
    rd = Netio.reader fd_in;
    wr = Netio.writer fd_out;
    fd_in;
    fd_out;
    owned;
    replies = Queue.create ();
    partial = [];
    partial_lines = 0;
    unanswered = 0;
    reading = true;
    more = false;
    broken = false;
  }

let flush c =
  if not c.broken then
    try Netio.flush_some c.wr
    with Unix.Unix_error _ | Sys_error _ -> c.broken <- true

(* move every answered batch at the head of the FIFO to the output *)
let answer c reply lines =
  reply.lines <- Some lines;
  let rec drain () =
    match Queue.peek_opt c.replies with
    | Some { lines = Some lines; size } ->
      ignore (Queue.pop c.replies);
      c.unanswered <- c.unanswered - size;
      List.iter
        (fun line ->
          Netio.queue c.wr line;
          Netio.queue c.wr "\n")
        lines;
      drain ()
    | _ -> ()
  in
  drain ();
  flush c

let too_large c what =
  Obs.inc obs_too_large;
  c.reading <- false;
  c.partial <- [];
  let line =
    Json.to_string
      (Json.Obj
         [
           ("id", Json.Null);
           ("status", Json.String "error");
           ("error", Json.String "request_too_large");
           ( "message",
             Json.String
               (Printf.sprintf "%s; closing this connection" what) );
         ])
  in
  let reply = { lines = None; size = 0 } in
  Queue.push reply c.replies;
  answer c reply [ line ]

let submit h c =
  let lines = List.rev c.partial in
  let reply = { lines = None; size = c.partial_lines } in
  c.partial <- [];
  c.partial_lines <- 0;
  Queue.push reply c.replies;
  c.unanswered <- c.unanswered + reply.size;
  h.batch lines (answer c reply)

let add_line c line =
  if String.length line > max_line_bytes then
    too_large c (Printf.sprintf "line longer than %d bytes" max_line_bytes)
  else if c.partial_lines >= max_batch_lines then
    too_large c (Printf.sprintf "batch longer than %d lines" max_batch_lines)
  else begin
    c.partial <- line :: c.partial;
    c.partial_lines <- c.partial_lines + 1
  end

(* Take lines until one batch is complete (blank line, or end of
   stream), then hand it over: at most one batch per turn.  Once
   [stopping], nothing more is read, so a batch the buffer does not
   complete never will be: it is dropped. *)
let take_batch h c ~stopping =
  let rec go () =
    if c.reading then
      match Netio.take_line c.rd with
      | Some line when String.trim line = "" ->
        if c.partial = [] then go () else submit h c
      | Some line ->
        add_line c line;
        go ()
      | None ->
        c.more <- false;
        if Netio.buffered c.rd > max_line_bytes then
          too_large c
            (Printf.sprintf "line longer than %d bytes" max_line_bytes)
        else if Netio.at_eof c.rd then begin
          (match Netio.take_rest c.rd with
          | Some line when String.trim line <> "" -> add_line c line
          | _ -> ());
          if c.reading then begin
            c.reading <- false;
            if c.partial <> [] then submit h c
          end
        end
        else if stopping then begin
          c.reading <- false;
          c.partial <- []
        end
  in
  go ()

let readable h c = c.reading && c.unanswered < h.max_pending

let finished c =
  c.broken || ((not c.reading) && Queue.is_empty c.replies && Netio.queued c.wr = 0)

let close c =
  if c.owned then try Unix.close c.fd_in with Unix.Unix_error _ -> ()

let serve h ~listener conns =
  let conns = ref conns in
  let last_snapshot = ref neg_infinity in
  let drain_deadline = ref None in
  let rec turn () =
    let stopping = h.stopped () in
    if stopping then begin
      (match !drain_deadline with
      | None -> drain_deadline := Some (Unix.gettimeofday () +. drain_timeout_s)
      | Some d when Unix.gettimeofday () > d ->
        (* a peer that does not read its answers is cut off; batches the
           handler still owes are not (it bounds them itself) *)
        List.iter (fun c -> if Queue.is_empty c.replies then c.broken <- true) !conns
      | Some _ -> ());
      (* nothing new is read; complete batches already buffered are
         still taken, one per turn, and answered *)
      List.iter
        (fun c ->
          if not c.more then begin
            c.reading <- false;
            c.partial <- []
          end)
        !conns
    end;
    conns :=
      List.filter
        (fun c ->
          if finished c then begin
            close c;
            false
          end
          else true)
        !conns;
    let wait = h.tick () in
    let extra_reads, extra_writes = h.watch () in
    let drained =
      (stopping || listener = None) && !conns = [] && extra_writes = []
    in
    if not drained then begin
      let now = Unix.gettimeofday () in
      if h.metrics_file <> None && now -. !last_snapshot >= h.metrics_every_s then begin
        last_snapshot := now;
        write_snapshot h
      end;
      let accepting =
        (not stopping) && List.length !conns < max_connections
      in
      let reads =
        List.fold_left
          (fun acc c ->
            if readable h c && not stopping then c.fd_in :: acc else acc)
          extra_reads !conns
      in
      let reads =
        match listener with
        | Some sock when accepting -> sock :: reads
        | _ -> reads
      in
      let writes =
        List.fold_left
          (fun acc c -> if Netio.queued c.wr > 0 then c.fd_out :: acc else acc)
          extra_writes !conns
      in
      let timeout =
        if List.exists (fun c -> c.more && readable h c) !conns then 0.
        else
          Float.max 0.
            (Float.min max_wait_s
               (Float.min wait
                  (match h.metrics_file with
                  | None -> infinity
                  | Some _ -> !last_snapshot +. h.metrics_every_s -. now)))
      in
      let r, w =
        match Unix.select reads writes [] timeout with
        | r, w, _ -> (r, w)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
      in
      (match listener with
      | Some sock when accepting && List.mem sock r -> (
        match Netio.accept ~timeout_s:0. sock with
        | `Conn fd ->
          Unix.set_nonblock fd;
          conns := !conns @ [ conn ~owned:true fd fd ]
        | `Timeout | `Interrupted -> ()
        | exception (Unix.Unix_error _ | Sys_error _) -> ())
      | _ -> ());
      List.iter
        (fun c ->
          if List.mem c.fd_in r && readable h c then
            match Netio.fill c.rd with
            | `Data | `Eof -> c.more <- true
            | `Again -> ()
            | exception (Unix.Unix_error _ | Sys_error _) -> c.broken <- true)
        !conns;
      h.ready
        (List.filter (fun fd -> List.mem fd r) extra_reads)
        (List.filter (fun fd -> List.mem fd w) extra_writes);
      List.iter
        (fun c ->
          if c.more && readable h c then take_batch h c ~stopping:(h.stopped ()))
        !conns;
      List.iter (fun c -> if List.mem c.fd_out w then flush c) !conns;
      turn ()
    end
  in
  turn ();
  List.iter close !conns;
  write_snapshot h

(* A daemon's live heap is small (caches, the span ring) while it
   allocates per request for its whole life; the default pace (120)
   lets the major heap grow to about twice that before collecting. *)
let space_overhead = 80

let run ?socket_path h =
  Gc.set { (Gc.get ()) with space_overhead };
  (* a peer that vanishes mid-response costs its connection (EPIPE), not
     the process *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ -> ());
  match socket_path with
  | None ->
    Stdlib.flush stdout;
    serve h ~listener:None [ conn ~owned:false Unix.stdin Unix.stdout ]
  | Some path ->
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close sock with Unix.Unix_error _ -> ());
        try Unix.unlink path with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.bind sock (Unix.ADDR_UNIX path);
        Unix.listen sock 64;
        serve h ~listener:(Some sock) [])

(* Deadline-aware socket primitives, safe against EINTR, plus the
   buffered reader and writer every connection of the serving loop and
   every pipelined backend connection of the router owns.

   Every blocking step is a select-then-syscall loop: a signal landing
   mid-wait (SIGCHLD from a supervised backend, SIGTERM starting a
   drain) interrupts the syscall with EINTR, and the loop retries with
   the *remaining* deadline instead of surfacing Unix_error or silently
   extending the wait.  Deadlines are absolute; [deadline = None] waits
   forever.  Timeouts raise [Failure] with a short message ("connect
   timed out", "write timed out", "response timed out").  The
   non-blocking steps ([fill], [flush_some]) make one syscall each and
   report EAGAIN/EINTR as no progress.

   Failpoint sites: [net.connect], [net.write], [net.read],
   [net.accept]; every read and write syscall, blocking or not, passes
   through [net.read] / [net.write]. *)

module Failpoint = Etx_util.Failpoint

let fp_connect = "net.connect"
let fp_write = "net.write"
let fp_read = "net.read"
let fp_accept = "net.accept"

let expired ~deadline ~now =
  match deadline with None -> false | Some d -> now () -. d >= 0.

(* wait until [fd] is ready; raises [Failure what_timed_out] on deadline *)
let wait_ready ~what ~deadline ~now ~for_write fd =
  let rec go () =
    let remaining =
      match deadline with
      | None -> -1. (* infinite *)
      | Some d ->
        let r = d -. now () in
        if r <= 0. then failwith what else r
    in
    let reads = if for_write then [] else [ fd ] in
    let writes = if for_write then [ fd ] else [] in
    match Unix.select reads writes [] remaining with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | [], [], _ -> failwith what
    | _ -> ()
  in
  go ()

let connect ?deadline ~now path =
  let rec attempt () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Unix.set_nonblock fd;
      Failpoint.hit fp_connect;
      (try Unix.connect fd (Unix.ADDR_UNIX path) with
      | Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _)
        -> (
        wait_ready ~what:"connect timed out" ~deadline ~now ~for_write:true fd;
        match Unix.getsockopt_error fd with
        | None -> ()
        | Some err -> raise (Unix.Unix_error (err, "connect", path))));
      fd
    with
    | fd -> Ok fd
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      (* interrupted before the attempt took: retry with what remains
         of the deadline *)
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if expired ~deadline ~now then Error "connect timed out" else attempt ()
    | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Unix.error_message err)
    | exception Failure msg ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error msg
  in
  attempt ()

(* one write syscall; failpoint-aware *)
let write_once fd data pos len =
  match Failpoint.check fp_write with
  | None -> Unix.single_write fd data pos len
  | Some (Failpoint.Errno e) -> raise (Unix.Unix_error (e, "write", fp_write))
  | Some (Failpoint.Sys_err m) -> raise (Sys_error m)
  | Some (Failpoint.Short n) -> Unix.single_write fd data pos (max 1 (min n len))
  | Some (Failpoint.Torn _) | Some Failpoint.Crash -> Failpoint.crash fp_write

let write_all ?deadline ~now fd data =
  let len = Bytes.length data in
  let pos = ref 0 in
  while !pos < len do
    wait_ready ~what:"write timed out" ~deadline ~now ~for_write:true fd;
    match write_once fd data !pos (len - !pos) with
    | n -> pos := !pos + n
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  done

(* Bytes [start, stop) of [buf] are unconsumed input; [scanned] of them,
   from [start], are known to hold no newline, so a long line arriving in
   many reads is scanned once. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : bytes;
  mutable start : int;
  mutable stop : int;
  mutable scanned : int;
  mutable eof : bool;
}

let chunk = 16384

let reader fd =
  { fd; buf = Bytes.create chunk; start = 0; stop = 0; scanned = 0; eof = false }

let fill r =
  if r.eof then `Eof
  else begin
    (* keep at least [chunk] bytes free past [stop] *)
    if Bytes.length r.buf - r.stop < chunk then begin
      let live = r.stop - r.start in
      let buf =
        if live + chunk <= Bytes.length r.buf then r.buf
        else Bytes.create (2 * (live + chunk))
      in
      Bytes.blit r.buf r.start buf 0 live;
      r.buf <- buf;
      r.start <- 0;
      r.stop <- live
    end;
    let room = Bytes.length r.buf - r.stop in
    match
      match Failpoint.check fp_read with
      | None -> Unix.read r.fd r.buf r.stop room
      | Some (Failpoint.Errno e) -> raise (Unix.Unix_error (e, "read", fp_read))
      | Some (Failpoint.Sys_err m) -> raise (Sys_error m)
      | Some (Failpoint.Short n) -> Unix.read r.fd r.buf r.stop (max 1 (min n room))
      | Some (Failpoint.Torn _) | Some Failpoint.Crash -> Failpoint.crash fp_read
    with
    | 0 ->
      r.eof <- true;
      `Eof
    | n ->
      r.stop <- r.stop + n;
      `Data
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      `Again
  end

let take_line r =
  let rec find i =
    if i >= r.stop then None
    else if Bytes.unsafe_get r.buf i = '\n' then Some i
    else find (i + 1)
  in
  match find (r.start + r.scanned) with
  | Some i ->
    let line = Bytes.sub_string r.buf r.start (i - r.start) in
    r.start <- i + 1;
    r.scanned <- 0;
    Some line
  | None ->
    r.scanned <- r.stop - r.start;
    None

let buffered r = r.stop - r.start
let at_eof r = r.eof

let take_rest r =
  if r.eof && r.stop > r.start then begin
    let s = Bytes.sub_string r.buf r.start (r.stop - r.start) in
    r.start <- r.stop;
    r.scanned <- 0;
    Some s
  end
  else None

let read_line ?deadline ~now r =
  let rec go () =
    match take_line r with
    | Some line -> Some line
    | None ->
      if r.eof then take_rest r
      else begin
        wait_ready ~what:"response timed out" ~deadline ~now ~for_write:false r.fd;
        ignore (fill r);
        go ()
      end
  in
  go ()

type writer = {
  wfd : Unix.file_descr;
  mutable out : bytes;
  mutable head : int;
  mutable tail : int;
}

let writer wfd = { wfd; out = Bytes.create 4096; head = 0; tail = 0 }
let queued w = w.tail - w.head

let queue w s =
  let n = String.length s in
  if w.tail + n > Bytes.length w.out then begin
    let live = w.tail - w.head in
    let out =
      if live + n <= Bytes.length w.out then w.out
      else Bytes.create (max (2 * Bytes.length w.out) (live + n))
    in
    Bytes.blit w.out w.head out 0 live;
    w.out <- out;
    w.head <- 0;
    w.tail <- live
  end;
  Bytes.blit_string s 0 w.out w.tail n;
  w.tail <- w.tail + n

let flush_some w =
  if w.tail > w.head then
    match write_once w.wfd w.out w.head (w.tail - w.head) with
    | n ->
      w.head <- w.head + n;
      if w.head = w.tail then begin
        w.head <- 0;
        w.tail <- 0
      end
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()

let accept ?timeout_s sock =
  let rec go () =
    match
      Failpoint.hit fp_accept;
      Unix.select [ sock ] [] [] (Option.value timeout_s ~default:(-1.))
    with
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      (* let the caller's loop re-check its stop flag *)
      `Interrupted
    | [], _, _ -> `Timeout
    | _ -> (
      match Unix.accept ~cloexec:true sock with
      | fd, _ -> `Conn fd
      | exception
          Unix.Unix_error
            ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        -> go ())
  in
  go ()

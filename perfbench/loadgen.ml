(* Load generator: one process, one pipelined Unix-socket connection,
   at most two threads (a sender and a receiver).

   Every request is sent as a batch of one (the line plus a blank line),
   so the daemon answers each as soon as it is read and responses come
   back in send order.  [open_loop] sends on a precomputed schedule
   whatever the replies do, and a request's latency runs from its
   intended send time, so a stall is charged to every request queued
   behind it; how late the sender itself ran is reported separately.
   [window] keeps a fixed number of requests outstanding, which
   measures completed requests per second at saturation. *)

open Common

type conn = { fd : Unix.file_descr; ic : in_channel }

let connect ?(timeout_s = 30.) path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
    (* a daemon that stops answering fails the run instead of hanging it *)
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
    Ok { fd; ic = Unix.in_channel_of_descr fd }
  | exception Unix.Unix_error (err, _, _) ->
    Unix.close fd;
    Error (Unix.error_message err)

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let b = Bytes.of_string (line ^ "\n\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

let receive c = match input_line c.ic with line -> Some line | exception (End_of_file | Sys_error _) -> None

(* one request/response exchange on a fresh connection *)
let call ?timeout_s path line =
  match connect ?timeout_s path with
  | Error _ as e -> e
  | Ok c ->
    Fun.protect ~finally:(fun () -> close c) @@ fun () ->
    (match send c line with () -> () | exception Unix.Unix_error _ -> ());
    (match receive c with Some r -> Ok r | None -> Error "no response")

(* Poisson arrival offsets (seconds from the start) at [rate] per second
   over [duration] seconds. *)
let poisson_schedule rng ~rate ~duration =
  let rec go t acc =
    let t = t -. (log (1. -. Random.State.float rng 1.) /. rate) in
    if t >= duration then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0. []

type open_result = {
  intended : float array;
  sent : float array;
  completed : float array;  (** [nan] for a request that never got a reply *)
  backlog_max : int;
}

(* [on_response i line] runs on the receiver thread; keep it cheap. *)
let open_loop c ~lines ~schedule ~on_response =
  let n = Array.length lines in
  let start = now () +. 0.005 in
  let intended = Array.map (fun off -> start +. off) schedule in
  let sent = Array.make n nan and completed = Array.make n nan in
  let received = Atomic.make 0 in
  let receiver =
    Thread.create
      (fun () ->
        let rec loop i =
          if i < n then
            match receive c with
            | None -> ()
            | Some line ->
              completed.(i) <- now ();
              Atomic.incr received;
              on_response i line;
              loop (i + 1)
        in
        loop 0)
      ()
  in
  let backlog_max = ref 0 in
  (try
     for i = 0 to n - 1 do
       let wait = intended.(i) -. now () in
       if wait > 0. then Thread.delay wait;
       sent.(i) <- now ();
       send c lines.(i);
       backlog_max := max !backlog_max (i + 1 - Atomic.get received)
     done
   with Unix.Unix_error _ -> ());
  Thread.join receiver;
  { intended; sent; completed; backlog_max = !backlog_max }

(* Saturation: keep [depth] requests in flight until all are answered;
   returns the wall time from the first send to the last reply, or
   [None] if the connection failed. *)
let window c ~lines ~depth ~on_response =
  let n = Array.length lines in
  let t0 = now () in
  let next = ref 0 in
  let push () =
    if !next < n then begin
      send c lines.(!next);
      incr next
    end
  in
  match
    for _ = 1 to depth do
      push ()
    done;
    for i = 0 to n - 1 do
      match receive c with
      | None -> raise Exit
      | Some line ->
        on_response i line;
        push ()
    done
  with
  | () -> Some (now () -. t0)
  | exception (Exit | Unix.Unix_error _) -> None

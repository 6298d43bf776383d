(* Structured trace spans.

   A trace id is minted once at the system's front door (the cluster
   router, or a server handling a request that arrived without one) and
   rides the wire in the request's optional [trace_id] field.  Within a
   process, [with_trace] installs the id in domain-local state and
   [span] brackets work under it, recording parent/child relations via
   an explicit stack — no global clock coordination, no allocation when
   the registry is disarmed.

   Timestamps are wall-clock but monotone-clamped through one global
   atomic: the stdlib has no monotonic clock, and a span whose end
   precedes its start (NTP step, VM pause) would poison downstream
   analysis, so every read is forced strictly past the previous one. *)

type span = {
  trace_id : string;
  span_id : int;
  parent_id : int; (* 0 = root *)
  name : string;
  start_s : float;
  end_s : float;
}

let capacity = 2048
let lock = Mutex.create ()
let spans : span Queue.t = Queue.create ()
let next_span_id = Atomic.make 1
let trace_counter = Atomic.make 0

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* strictly monotone microsecond clock, shared across domains *)
let last_us = Atomic.make 0

let now_s () =
  let t = int_of_float (Unix.gettimeofday () *. 1e6) in
  let rec clamp () =
    let last = Atomic.get last_us in
    let v = if t > last then t else last + 1 in
    if Atomic.compare_and_set last_us last v then v else clamp ()
  in
  float_of_int (clamp ()) /. 1e6

let splitmix64 x =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* 16 hex chars.  The per-process counter guarantees in-process
   uniqueness (splitmix64 is a bijection); pid and time decorrelate
   concurrent processes. *)
let new_trace_id () =
  let c = 1 + Atomic.fetch_and_add trace_counter 1 in
  let t = int_of_float (Unix.gettimeofday () *. 1e6) in
  let seed =
    Int64.logxor
      (Int64.of_int (t lxor (Unix.getpid () lsl 40)))
      (Int64.mul (Int64.of_int c) 0x9E3779B97F4A7C15L)
  in
  Printf.sprintf "%016Lx" (splitmix64 seed)

type ctx = { c_trace : string; mutable c_stack : int list }

let ctx_key : ctx option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_trace_id () =
  match !(Domain.DLS.get ctx_key) with
  | Some c -> Some c.c_trace
  | None -> None

let with_trace trace f =
  match trace with
  | None -> f ()
  | Some trace_id ->
    let r = Domain.DLS.get ctx_key in
    let saved = !r in
    r := Some { c_trace = trace_id; c_stack = [] };
    Fun.protect ~finally:(fun () -> r := saved) f

let record s =
  with_lock (fun () ->
    Queue.push s spans;
    if Queue.length spans > capacity then ignore (Queue.pop spans))

let span name f =
  if not (Obs.enabled ()) then f ()
  else
    match !(Domain.DLS.get ctx_key) with
    | None -> f ()
    | Some c ->
      let id = Atomic.fetch_and_add next_span_id 1 in
      let parent = match c.c_stack with [] -> 0 | p :: _ -> p in
      c.c_stack <- id :: c.c_stack;
      let start_s = now_s () in
      let finish () =
        (match c.c_stack with
        | x :: rest when x = id -> c.c_stack <- rest
        | _ -> ());
        record
          {
            trace_id = c.c_trace;
            span_id = id;
            parent_id = parent;
            name;
            start_s;
            end_s = now_s ();
          }
      in
      Fun.protect ~finally:finish f

(* A span opened in one call and finished in another: the router starts
   [cluster.route] when a request arrives and finishes it when the reply
   does, turns of the serving loop later. *)
type opened = {
  o_trace : string;
  o_id : int;
  o_parent : int;
  o_name : string;
  o_start : float;
}

let opened ~trace ~parent name =
  Some
    {
      o_trace = trace;
      o_id = Atomic.fetch_and_add next_span_id 1;
      o_parent = parent;
      o_name = name;
      o_start = now_s ();
    }

let start name =
  if not (Obs.enabled ()) then None
  else
    match !(Domain.DLS.get ctx_key) with
    | None -> None
    | Some c ->
      opened ~trace:c.c_trace
        ~parent:(match c.c_stack with [] -> 0 | p :: _ -> p)
        name

let child parent name =
  match parent with
  | None -> None
  | Some p -> opened ~trace:p.o_trace ~parent:p.o_id name

let finish = function
  | None -> ()
  | Some o ->
    record
      {
        trace_id = o.o_trace;
        span_id = o.o_id;
        parent_id = o.o_parent;
        name = o.o_name;
        start_s = o.o_start;
        end_s = now_s ();
      }

let recent () = with_lock (fun () -> List.of_seq (Queue.to_seq spans))
let reset () = with_lock (fun () -> Queue.clear spans)

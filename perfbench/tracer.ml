(* In-memory spans recorded by the benchmark around its own calls into
   each layer of the program.  A span has a name, a start and an end, the
   span that caused it ([parent], 0 for a root) and the identifier shared
   by every span of one unit of work ([trace]).  Spans stay in memory
   until [write] dumps them at the end of a run, so recording costs a
   clock read and a cons, never I/O.

   Recording is off unless [set_enabled true]; worker domains may record
   concurrently, so the span list is guarded by a mutex. *)

type span = {
  id : int;
  parent : int;
  trace : int;
  name : string;
  start_s : float;
  end_s : float;
}

let enabled = Atomic.make false
let set_enabled on = Atomic.set enabled on
let on () = Atomic.get enabled
let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1
let lock = Mutex.create ()
let spans = ref []

(* the innermost open span of this domain: (trace, span id) *)
let current : (int * int) Domain.DLS.key = Domain.DLS.new_key (fun () -> (0, 0))

let now = Unix.gettimeofday

let record ?(id = fresh_id ()) ~trace ~parent name start_s end_s =
  if on () then begin
    let s = { id; parent; trace; name; start_s; end_s } in
    Mutex.lock lock;
    spans := s :: !spans;
    Mutex.unlock lock
  end

(* [with_span name f] brackets [f] in a span nested under the domain's
   current one; [~root:true] starts a new trace.  Costs one atomic load
   while recording is off. *)
let with_span ?(root = false) name f =
  if not (on ()) then f ()
  else begin
    let saved = Domain.DLS.get current in
    let id = fresh_id () in
    let trace, parent = if root || fst saved = 0 then (id, 0) else saved in
    Domain.DLS.set current (trace, id);
    let start_s = now () in
    Fun.protect
      ~finally:(fun () ->
        Domain.DLS.set current saved;
        record ~trace ~parent ~id name start_s (now ()))
      f
  end

(* the (trace, span) a worker domain should nest its spans under *)
let context () = Domain.DLS.get current

let in_context (trace, parent) f =
  let saved = Domain.DLS.get current in
  Domain.DLS.set current (trace, parent);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current saved) f

let all () =
  Mutex.lock lock;
  let xs = !spans in
  Mutex.unlock lock;
  List.rev xs

let duration s = s.end_s -. s.start_s

(* Self time of every span: its duration minus the part of its interval
   that the union of its children's intervals covers. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent (s.start_s, s.end_s))
    spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun (a, b) -> (Float.max a s.start_s, Float.min b s.end_s))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., neg_infinity) kids
      in
      (s, duration s -. covered))
    spans

(* total self time per span name *)
let self_by_name spans =
  let table = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let prev = Option.value (Hashtbl.find_opt table s.name) ~default:0. in
      Hashtbl.replace table s.name (prev +. self))
    (self_times spans);
  table

let write path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun (s, self) ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"trace\":%d,\"name\":%S,\"start_s\":%.6f,\"end_s\":%.6f,\"self_s\":%.9f}\n"
            s.id s.parent s.trace s.name s.start_s s.end_s self)
        (self_times spans))

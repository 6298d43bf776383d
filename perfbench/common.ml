(* Shared helpers: order statistics, the run's metric table, and the
   run directory every workload writes into. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Linear-interpolated quantile of a non-empty sample, q in [0, 1]. *)
let quantile q xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: empty sample";
  Array.sort compare a;
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  let frac = pos -. float_of_int i in
  if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* The summary of a run's repeated measurements of one time.  This host
   shares its CPUs, and contention from outside only ever slows a
   repetition, sometimes for minutes; the lower quartile of the
   repetitions tracks the program's own cost through that, where the
   median follows the neighbours. *)
let lower_quartile xs = quantile 0.25 xs

(* - host speed -

   The shared host's speed drifts by up to half over minutes, whatever
   runs on it, and moves whole runs (perfbench/README.md has the
   measurements).  So every timed repetition is paired with a fixed
   calibration kernel that calls nothing of the program: hashing,
   small float arrays and minor-heap allocation, the mix that followed
   the engine's drift most closely of those tried.  It runs just before
   the repetition, in a process of its own (so the workload's domains
   and heap do not slow it), on two domains at once as the workloads
   use both CPUs, once to warm up and once timed.  A repetition's
   calibrated time is its wall time scaled by [reference_kernel_s] over
   the kernel's time next to it: the time it would have taken with the
   host at the reference speed. *)

let kernel () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0. in
  for i = 0 to 20_000 do
    Hashtbl.replace h (i land 4095) (float_of_int i);
    let a = Array.init 16 (fun j -> float_of_int (i + j)) in
    acc := !acc +. sqrt a.(i land 15) +. Option.value (Hashtbl.find_opt h ((i * 7) land 4095)) ~default:0.
  done;
  ignore (Sys.opaque_identity !acc)

(* the body of [etxbench --kernel]: the kernel's wall time on two
   domains, in seconds, after one untimed round *)
let kernel_pair_s () =
  let pair () =
    let d = Domain.spawn kernel in
    kernel ();
    Domain.join d
  in
  pair ();
  snd (time pair)

let kernel_s () =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "--kernel" |] in
  let line = try input_line ic with End_of_file -> "" in
  match (Unix.close_process_in ic, float_of_string_opt line) with
  | Unix.WEXITED 0, Some s when s > 0. -> s
  | _ -> failwith "the calibration kernel failed"

(* about the kernel's time on the quiet 2-vCPU host this benchmark was built on *)
let reference_kernel_s = 0.010

let calibrated ~kernel_s wall = wall *. reference_kernel_s /. kernel_s

(* [repeat_median ~reps ~inner f] times [reps] batches of [inner] calls
   and returns the median per-call time in seconds. *)
let repeat_median ~reps ~inner f =
  median
    (List.init reps (fun _ ->
         let (), dt =
           time (fun () ->
               for _ = 1 to inner do
                 f ()
               done)
         in
         dt /. float_of_int inner))

(* - the run's result - *)

(* measured values by metric name; [result_line] prints the declared
   metric set in order, so a workload that does not exercise a layer
   reports 0 for it *)
let values : (string, float) Hashtbl.t = Hashtbl.create 64

let set name value = Hashtbl.replace values name value

let attempted = ref 0
let failed = ref 0
let problems : string list ref = ref []

(* one unit of checked work; [ok = false] is a correctness failure *)
let check ok fmt =
  Printf.ksprintf
    (fun message ->
      incr attempted;
      if not ok then begin
        incr failed;
        if List.length !problems < 20 then problems := message :: !problems
      end)
    fmt

(* every digit as measured; JSON has no NaN or infinity *)
let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line declared =
  let body =
    declared
    |> List.map (fun (name, unit_) ->
           let v = Option.value (Hashtbl.find_opt values name) ~default:0. in
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_)
    |> String.concat ", "
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!failed = 0 && !attempted > 0)
    (max 1 !attempted) !failed body

(* - files - *)

(* Every run writes beneath .bench_run/ in the working directory (the
   checkout root); relative paths keep Unix socket names short. *)
let run_root = ".bench_run"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun name -> remove_tree (Filename.concat path name)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let dir_counter = Atomic.make 0

let fresh_dir label =
  let dir =
    Filename.concat run_root
      (Printf.sprintf "%s-%d-%d" label (Unix.getpid ()) (Atomic.fetch_and_add dir_counter 1))
  in
  remove_tree dir;
  mkdir_p dir;
  dir

(* peak resident set (VmHWM) of a process, in MB; 0 if it is gone *)
let vm_hwm_mb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0.
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> 0.
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                  float_of_int kb /. 1024.)
            else scan ()
        in
        scan ())

(* direct children of a process (Linux /proc) *)
let children pid =
  match open_in (Printf.sprintf "/proc/%d/task/%d/children" pid pid) with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match input_line ic with
        | exception End_of_file -> []
        | line ->
          String.split_on_char ' ' line
          |> List.filter_map (fun s -> int_of_string_opt (String.trim s)))

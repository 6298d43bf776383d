(** ALICE-style crash-consistency harness for the persistence layers.

    For each artifact — durable result store, engine checkpoint, sweep
    manifest — the harness first runs the write sequence once with
    {!Etx_util.Failpoint} hit recording on, which {e enumerates} every
    interruption point (temp-file creation, each write, fsync, rename,
    post-rename).  It then replays the sequence once per kill point in a
    forked child whose crash hook is [Unix._exit] — no buffer flush, no
    [at_exit], no [Fun.protect] finalizer runs, exactly as in a real
    crash (torn writes additionally truncate the in-flight buffer at a
    seeded offset).  After each simulated crash the parent re-opens the
    artifact and asserts the recovery invariants:

    - no committed entry is lost, and its replayed bytes are
      bit-identical;
    - the interrupted entry is all-or-nothing — either absent or
      complete, never served partially;
    - recovery sweeps leftover [*.tmp] files;
    - the artifact accepts subsequent writes.

    The [net] part applies the same enumeration to the serving loop's
    socket reads, writes and accepts, with a forked daemon and a fixed
    client script.

    A second, in-process pass injects non-crash failures (ENOSPC, EIO,
    short and interrupted transfers, rename failure, fsync failure) at
    every enumerated site and asserts the writers absorb or report them
    without corrupting committed state.

    Everything is seeded and deterministic; the harness is wrapped as
    QCheck properties in the test suite and exposed as the [crashtest]
    CLI subcommand. *)

type report = {
  part : string;  (** ["store"], ["checkpoint"] or ["manifest"]. *)
  seed : int;
  kill_points : int;  (** Forked crash replays performed. *)
  injections : int;  (** In-process failure injections performed. *)
  violations : string list;  (** Empty = every invariant held. *)
}

val store : ?seed:int -> dir:string -> unit -> report
(** Kill-point enumeration over {!Store.add} (fresh key and
    overwrite-in-place), recovery via {!Store.open_dir}. *)

val checkpoint : ?seed:int -> dir:string -> unit -> report
(** Kill-point enumeration over {!Etx_etsim.Checkpoint.write_file}
    replacing an existing frame and creating a fresh one. *)

val manifest : ?seed:int -> dir:string -> unit -> report
(** Kill-point enumeration over the sweep-manifest save inside
    {!Etextile.Experiments.run_units_supervised} (via its [?simulate]
    hook, so no real simulation runs in the children); recovery is a
    resumed sweep that must complete and leave the manifest bytes equal
    to a clean run's. *)

val net : ?seed:int -> dir:string -> unit -> report
(** The serving loop's socket paths: a forked [serve] child answers a
    fixed client script while each enumerated [net.*] hit is replayed
    as a crash, a hard error (EIO, or EPIPE on writes), a short transfer
    and [EINTR].  Every answer a client receives must be complete and
    equal a clean run's; a hard error may cost only the connection it
    lands on; short and interrupted transfers must be absorbed; after
    any non-crash failure the daemon must answer a fresh connection and
    shut down cleanly. *)

val run :
  ?seed:int ->
  ?parts:[ `Store | `Checkpoint | `Manifest | `Net ] list ->
  dir:string ->
  unit ->
  report list
(** All requested parts (default: all four) under a scratch [dir],
    which is created and left behind for inspection. *)

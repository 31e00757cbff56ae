(** The [argus bench serve] load generator: replays seeded session
    scripts from many clients, all open at once on one in-process
    {!Serve.Server}, and measures throughput, latency percentiles, and
    evaluation-cache lookups.

    Each client runs a two-phase script against its own session:

    - {b cold} — [open] a generated program and [solve] it;
    - {b warm} — [tree], [expand], [hover], [explain], then [reload] a
      1-step-edited version and [solve] again.

    Every serve [solve] records a journal for [explain] and [profile],
    and a recording solve never consults the evaluation cache, so the
    run should make no cache lookups at all. *)

type stats = {
  ls_clients : int;
  ls_requests : int;  (** total requests issued across both phases *)
  ls_errors : int;  (** responses carrying a JSON-RPC error object *)
  ls_wall_ns : int;  (** both phases, wall clock *)
  ls_throughput_rps : float;  (** requests / wall seconds *)
  ls_p50_ns : int;  (** per-request latency median *)
  ls_p99_ns : int;
  ls_cache_lookups : int;
      (** eval-cache tree + result hits + misses over the run; 0 when
          every solve recorded a journal *)
}

(** [run ~clients ~seed ()] drives [clients] sessions, one after
    another within each phase, against a fresh server with a cleared
    cache.  [programs] (default 8) is the size of the seeded program
    pool clients draw from.  Telemetry is force-enabled for the
    duration (cache counters are dormant otherwise) and restored after.
    @raise Invalid_argument when [programs] or [clients] is below 1. *)
val run :
  ?programs:int ->
  clients:int ->
  seed:int ->
  unit ->
  stats

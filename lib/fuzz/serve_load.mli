(** The [argus bench serve] load generator: replays seeded session
    scripts from many clients, all open at once on one in-process
    {!Serve.Server}, and measures throughput, latency percentiles, and
    cache hit rates.

    Each client runs a two-phase script against its own session:

    - {b cold} — [open] a generated program, [solve] it (every cache
      lookup misses: the program's stamp is fresh);
    - {b warm} — [tree], [expand], [hover], [explain], then [reload] a
      1-step-edited version and [solve] again (green subtrees replay
      from the shared cache).

    Cache counters are snapshotted at the phase barrier, so the
    warm-vs-cold hit rates prove the eval cache survives across
    requests and sessions — the property the daemon exists for. *)

type stats = {
  ls_clients : int;
  ls_requests : int;  (** total requests issued across both phases *)
  ls_errors : int;  (** responses carrying a JSON-RPC error object *)
  ls_wall_ns : int;  (** both phases, wall clock *)
  ls_throughput_rps : float;  (** requests / wall seconds *)
  ls_p50_ns : int;  (** per-request latency median *)
  ls_p99_ns : int;
  ls_cold_hits : int;  (** eval-cache hits during the cold phase *)
  ls_cold_misses : int;
  ls_warm_hits : int;
  ls_warm_misses : int;
  ls_cold_hit_rate : float;  (** hits / lookups, 0 when no lookups *)
  ls_warm_hit_rate : float;
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

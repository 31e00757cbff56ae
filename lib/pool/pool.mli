(** A fixed-size domain pool: the workers that
    [Serve.Server.handle_batch] runs client sessions on.

    [create ~jobs] spawns [jobs] worker domains that service a shared
    work queue; {!map} fans a list out over them and collects results
    {b in input order}, so callers that need deterministic output simply
    iterate the result list.  A worker exception is captured with its
    backtrace and re-raised in the caller (first failing input wins)
    after the whole batch has drained, so the pool is never left with
    orphaned in-flight tasks.

    The pool makes no ordering promises about {e execution} — tasks run
    whenever a worker frees up — so tasks must not depend on each other.
    Determinism is the caller's contract: give {!map} pure-per-input
    work (or work whose shared effects are commutative, like the
    evaluation cache) and the output order does the rest.

    Telemetry: [pool.tasks] counts tasks executed, [pool.batches] counts
    {!map} calls, [pool.domains] records the high-water worker count.
    Workers flush their domain-local telemetry event buffers after each
    task so {!Telemetry.events} sees a complete stream after the batch
    returns. *)

type t

(** Spawn [jobs] worker domains.  @raise Invalid_argument when
    [jobs < 1]. *)
val create : jobs:int -> t

(** The worker count the pool was created with. *)
val jobs : t -> int

(** [map pool f xs] applies [f] to every element of [xs] on the worker
    domains and returns the results in input order.  Blocks until every
    task has finished; if any task raised, re-raises the exception of
    the earliest failing input (with its original backtrace) after the
    batch drains. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** Stop the workers and join their domains.  Idempotent; the pool is
    unusable afterwards. *)
val shutdown : t -> unit

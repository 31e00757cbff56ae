(** An incremental solving session: [load → edit → resolve → query].

    Feeding the session successive program versions revalidates the
    shared evaluation cache across each edit instead of discarding it —
    {!Trait_lang.Fingerprint.diff} classifies the edit, {!Eval_cache.rebase}
    evicts exactly the entries that consulted a dirty declaration (the
    rest survive with their program stamp re-keyed).
    {!resolve} then runs an ordinary full solve in which unaffected
    goals replay bit-identically from the cache, so an incremental
    re-solve produces byte-identical reports, proof trees, and
    diagnostics to a from-scratch run (the [incremental] fuzz oracle
    checks exactly this).

    Sessions solve with an empty where-clause environment; program
    {e goal} edits are free (goals are inputs, not cached context).
    Telemetry: [incr.evicted], [incr.survived], [incr.resolves]. *)

open Trait_lang

type t

(** What one edit did to the cached state. *)
type delta = {
  d_changed : int;  (** declarations changed/added/removed *)
  d_evicted : int;  (** cache entries invalidated (red) *)
  d_survived : int;  (** cache entries re-keyed to the new stamp (green) *)
}

val no_delta : delta
val create : ?cfg:Solve.config -> unit -> t

(** Replace the session's program, revalidating cached state against the
    previous version (a no-op delta on first load). *)
val edit : t -> Program.t -> delta

(** Alias of {!edit} — reads as intent at the call site. *)
val load : t -> Program.t -> delta

(** Re-solve the current program's goals (full fixpoint; green subtrees
    replay from the cache).  @raise Invalid_argument before any load. *)
val resolve : t -> Obligations.report

val program : t -> Program.t option
val report : t -> Obligations.report option
val last_delta : t -> delta
val errors : t -> Obligations.goal_report list

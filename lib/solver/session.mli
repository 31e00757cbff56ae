(** A solving session: [load → edit → resolve → query].

    The session holds one program version at a time.  {!edit} swaps in
    the next version; when its stamp differs from the previous one's
    (any declaration change), every evaluation-cache entry keyed by the
    previous stamp is evicted, since no later solve can hit it.  A
    same-stamp edit (goals only, or an unchanged reload) evicts nothing,
    and the next {!resolve} replays from the warm cache.  Cache replay
    is response-invisible, so a session re-solve is byte-identical to a
    from-scratch run. *)

open Trait_lang

type t

(** What one edit did to the cache. *)
type delta = {
  d_evicted : int;  (** entries of the previous program's stamp dropped *)
  d_survived : int;  (** always 0: no entry carries over to a new stamp *)
}

val create : ?cfg:Solve.config -> unit -> t

(** Replace the session's program, evicting the previous version's cache
    entries when the stamp changes (nothing is evicted on first load). *)
val edit : t -> Program.t -> delta

(** Alias of {!edit} — reads as intent at the call site. *)
val load : t -> Program.t -> delta

(** Re-solve the current program's goals.
    @raise Invalid_argument before any load. *)
val resolve : t -> Obligations.report

val program : t -> Program.t option
val report : t -> Obligations.report option
val errors : t -> Obligations.goal_report list

(** A solving session: [load → edit → resolve → query].

    The session holds one program version at a time.  {!edit} swaps in
    the next version; each {!resolve} is a fresh
    {!Obligations.solve_program} run with its own evaluation cache, so
    a session re-solve is byte-identical to a from-scratch run. *)

open Trait_lang

type t

(** What one edit did to the cache: always nothing, since no cache
    outlives its run.  Both fields read 0. *)
type delta = { d_evicted : int; d_survived : int }

val create : ?cfg:Solve.config -> unit -> t

(** Replace the session's program. *)
val edit : t -> Program.t -> delta

(** Alias of {!edit} — reads as intent at the call site. *)
val load : t -> Program.t -> delta

(** Re-solve the current program's goals.
    @raise Invalid_argument before any load. *)
val resolve : t -> Obligations.report

val program : t -> Program.t option
val report : t -> Obligations.report option
val errors : t -> Obligations.goal_report list

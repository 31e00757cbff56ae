(** The solver's side of the search {!Journal}: guarded emission
    helpers, the wire form of a candidate source, and the
    replay-validator conversion from direct trace trees.  Results,
    provenance, flags and unification failures are the journal's own
    types, so nothing else is converted. *)

open Trait_lang

(** A candidate source in wire form: an impl becomes its id and
    expanded header. *)
val source_of : Trace.cand_source -> Journal.source

(** {1 Emission helpers (no-ops while the journal is disabled)} *)

val goal_enter : id:int -> depth:int -> Journal.prov -> Predicate.t -> unit
val goal_exit : Trace.goal_node -> unit
val goal_flag : id:int -> Journal.flag -> unit
val cand_enter : id:int -> goal:int -> Trace.cand_source -> unit
val cand_exit : Trace.cand_node -> unit
val cand_assembled : goal:int -> param_env:int -> impls:int -> builtin:int -> unit
val cand_commit : goal:int -> cand:int -> unit
val cycle : id:int -> Predicate.t -> unit
val overflow : id:int -> depth_limited:bool -> unit
val ambiguity : id:int -> succeeded:int -> unit
val norm_resolved : id:int -> Ty.t option -> unit

val probe_begin : origin:string -> alternatives:int -> unit
val probe_end : committed:int option -> unit

(** {1 Replay bridge} *)

(** Convert a direct trace tree for comparison against
    {!Journal.replay}'s output. *)
val rtree_of_trace : Trace.goal_node -> Journal.rgoal

val rcand_of_trace : Trace.cand_node -> Journal.rcand

(** Bridge between the solver's types and the search {!Journal}:
    type conversions, guarded emission helpers, and the replay-validator
    conversion from direct trace trees. *)

open Trait_lang

(** {1 Conversions} *)

val res_of : Res.t -> Journal.res
val flag_of : Trace.flag -> Journal.flag
val prov_of : Trace.provenance -> Journal.prov
val source_of : Trace.cand_source -> Journal.source
val failure_of : Unify.failure -> Journal.unify_failure

(** {1 Emission helpers (no-ops while the journal is disabled)} *)

val goal_enter : id:int -> depth:int -> Trace.provenance -> Predicate.t -> unit
val goal_exit : Trace.goal_node -> unit
val goal_flag : id:int -> Trace.flag -> unit
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

(** Journal a solver-constructed unification failure (one that
    short-circuited before reaching {!Unify.unify}). *)
val unify_failed : Infer_ctx.t -> Ty.t -> Ty.t -> Unify.failure -> unit

(** {1 Replay bridge} *)

(** Convert a direct trace tree for comparison against
    {!Journal.replay}'s output. *)
val rtree_of_trace : Trace.goal_node -> Journal.rgoal

val rcand_of_trace : Trace.cand_node -> Journal.rcand

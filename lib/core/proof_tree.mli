(** The idealized trait inference tree that Argus visualizes.

    This is the cleaned-up AND/OR tree of the paper's Fig. 5, produced
    from the raw solver {!Solver.Trace} by {!Extract}.  It is stored as a
    flat arena with parent pointers because the two view projections walk
    it in opposite directions: top-down follows children, bottom-up
    starts from {!failed_leaves} and follows parents. *)

open Trait_lang

type node_id = int

type goal_info = {
  pred : Predicate.t;
  result : Solver.Res.t;
  provenance : Journal.prov;
  is_overflow : bool;  (** E0275 / depth limit *)
  is_stateful : bool;  (** a captured [NormalizesTo] node (§4) *)
  is_user_visible : bool;  (** hidden unless the predicate toggle is on *)
  depth : int;  (** goal depth in the inference tree *)
  trace_id : int;
      (** stable journal event ID of the originating [Goal_enter]/[Goal_exit]
          pair ({!Solver.Trace.goal_node.gid}); negative when the node has no
          originating event (synthetic trees) *)
}

type cand_info = {
  source : Solver.Trace.cand_source;
  cand_result : Solver.Res.t;
  failure : Journal.unify_failure option;
  cand_trace_id : int;
      (** stable journal event ID of the originating candidate frame
          ({!Solver.Trace.cand_node.cid}); negative when none *)
}

type kind = Goal of goal_info | Cand of cand_info

type node = { id : node_id; kind : kind; parent : node_id option; children : node_id list }

type t

(** {1 Access} *)

val root : t -> node
val node : t -> node_id -> node

(** Total number of nodes (goals and candidates). *)
val size : t -> int

(** Number of goal nodes — the Fig. 12b tree-size metric. *)
val goal_count : t -> int

val parent : t -> node -> node option
val children : t -> node -> node list
val result_of : node -> Solver.Res.t
val is_goal : node -> bool
val goal_info : node -> goal_info option
val cand_info : node -> cand_info option
val is_failed : node -> bool
val fold : ('a -> node -> 'a) -> 'a -> t -> 'a

(** All failed goal nodes, in id order. *)
val failed_goals : t -> node list

(** The innermost failed goals: failed goals none of whose descendant
    goals fail.  These root the bottom-up view (§3.2.1) and are the
    candidate root causes the inertia heuristic ranks. *)
val failed_leaves : t -> node list

(** The goal-ancestors of a node, innermost first, ending at the root. *)
val ancestors : t -> node -> node list

(** Distance in goal steps between two nodes along parent links (the
    Fig. 12a metric against the compiler's reported error). *)
val goal_distance : t -> node -> node -> int

(** {1 Construction}

    Builders are used by {!Extract} and {!Synthetic}: children are
    supplied by a callback receiving the fresh node's id, so trees are
    built top-down in one pass. *)

type builder

val builder : unit -> builder
val add_node : builder -> parent:node_id option -> kind -> (node_id -> node_id list) -> node_id
val build : builder -> root:node_id -> t

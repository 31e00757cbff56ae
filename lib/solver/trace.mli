(** The raw trait-inference trace: the AND/OR tree of Fig. 5.

    G ⟶ p × \{C̄\} × R (predicate evaluation); C ⟶ impl × \{Ḡ\} × R
    (candidate evaluation).  A predicate succeeds if one candidate does;
    a candidate succeeds if all its nested predicates do.  Unlike the
    idealized tree Argus visualizes, the raw trace keeps the §4 warts —
    stateful normalization nodes, speculative predicates, overflow
    markers — for {!Argus.Extract} to clean up. *)

open Trait_lang

type goal_node = {
  gid : int;  (** stable journal node ID ({!Journal.fresh_id}) *)
  pred : Predicate.t;  (** resolved as of evaluation start *)
  result : Res.t;
  candidates : cand_node list;
  depth : int;
  provenance : Journal.prov;
  flags : Journal.flag list;
}

and cand_source =
  | Cand_impl of Decl.impl
  | Cand_param_env of Predicate.t
  | Cand_builtin of string  (** e.g. "fn-item", "sized", "tuple" *)

and cand_node = {
  cid : int;  (** stable journal node ID ({!Journal.fresh_id}) *)
  source : cand_source;
  cand_result : Res.t;
  subgoals : goal_node list;
  failure : Journal.unify_failure option;
      (** head or associated-type-term mismatch, when rejected outright *)
}

val has_flag : Journal.flag -> goal_node -> bool
val is_overflow : goal_node -> bool

(** Total goal-node count (the Fig. 12b size metric). *)
val size : goal_node -> int

val depth_of : goal_node -> int
val fold_goals : ('a -> goal_node -> 'a) -> 'a -> goal_node -> 'a

(** Failed goals with no failing sub-structure — the raw form of the
    bottom-up view's roots. *)
val failed_leaves : goal_node -> goal_node list

val cand_source_name : cand_source -> string

(** The inertia heuristic (§3.3, Appendix A.1): ranking failing
    predicates by the expected complexity of the patch that fixes them.
    The categories and weights are a verbatim port of the paper's Rust
    [GoalKind] enum. *)

open Trait_lang

type location = Local | External

type goal_kind =
  | Trait of { self_ : location; trait_ : location }
      (** an ordinary trait bound; cost depends on the orphan rule *)
  | TyChange  (** a type must change (e.g. an associated-type mismatch) *)
  | FnToTrait of { trait_ : location; arity : int }
      (** a function item/pointer must implement a non-[Fn] trait *)
  | TyAsCallable of { arity : int }  (** a non-function used where [Fn] is required *)
  | DeleteFnParams of { delta : int }
  | AddFnParams of { delta : int }
  | IncorrectParams of { arity : int }
  | Misc

(** Appendix A.1's [GoalKind::weight], transcribed: 0 / 1 / 2 / 4 /
    5·delta / 4+5·arity / 50. *)
val weight : goal_kind -> int

val location_of_crate : Path.crate -> location
val location_of_ty : Ty.t -> location

(** Classify a failing predicate into one of the eight categories, from
    its structure alone (§3.3). *)
val classify : Predicate.t -> goal_kind

(** [weight (classify p)]. *)
val score : Predicate.t -> int

(** {1 The Fig. 10 pipeline: tree → MCS → classify → weight → sort} *)

type scored_set = {
  predicates : (Predicate.t * Proof_tree.node_id * goal_kind * int) list;
  total : int;  (** the conjunct's score: sum of predicate scores *)
}

type ranking = {
  sets : scored_set list;  (** MCSes, cheapest first *)
  leaves : (Proof_tree.node_id * int) list;
      (** every failing leaf with its display order key *)
}

val rank : Proof_tree.t -> ranking

(** The failing leaf nodes of [tree] in the order [ranking] (a ranking
    of that same tree) gives them; leaves appearing in no MCS are
    appended in tree order.  Lets a caller that already holds a
    {!rank} result order the leaves without ranking again. *)
val leaves_of_ranking : Proof_tree.t -> ranking -> Proof_tree.node list

(** [leaves_of_ranking tree (rank tree)]: the bottom-up ordering of
    failing leaf nodes under inertia. *)
val sorted_leaves : Proof_tree.t -> Proof_tree.node list

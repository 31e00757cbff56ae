(** Coherence: overlap checking, the orphan rule, and impl
    well-formedness (associated-type bounds). *)

open Trait_lang

(** {1 Overlap (E0119)} *)

type overlap = {
  trait_ : Path.t;
  impl_a : Decl.impl;
  impl_b : Decl.impl;
  witness : Ty.t;  (** a type both impls would apply to *)
}

(** Do two impls of the same trait overlap?  Tests head unification under
    fresh variables; where-clauses are not consulted (no negative
    reasoning), as in rustc's basic check. *)
val overlap_of_pair : Infer_ctx.t -> Decl.impl -> Decl.impl -> overlap option

(** All pairwise overlaps in a program, in the order of the loop over
    all pairs of [Program.impls].  Each impl is probed only against the
    later impls of its head bucket ({!Trait_lang.Program.impls_with_head}),
    the same-trait impls whose self heads can unify with its own. *)
val check : Program.t -> overlap list

(** {1 The orphan rule (E0117)} *)

type orphan = { o_impl : Decl.impl; o_trait : Path.t; o_self : Ty.t }

(** Does [ty] mention a nominal type of [crate]?  The simplified "local
    type coverage" test. *)
val mentions_crate_ty : Path.crate -> Ty.t -> bool

(** Legal iff the trait, the self type, or a trait argument is local to
    the impl's crate. *)
val is_orphan : Decl.impl -> bool

val orphan_violations : Program.t -> orphan list

(** {1 Impl well-formedness} *)

(** A failed item bound: the impl binds [wf_assoc] to a type that does
    not satisfy the bound its trait declares; [wf_tree] is the failing
    inference tree, debuggable like any other. *)
type wf_failure = {
  wf_impl : Decl.impl;
  wf_assoc : string;
  wf_bound : Ty.trait_ref;
  wf_tree : Trace.goal_node;
}

(** Check every associated-type binding against its declared bounds, with
    the impl's own where-clauses in scope. *)
val check_impl_wf : ?cfg:Solve.config -> Program.t -> wf_failure list

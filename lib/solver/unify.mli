(** First-order unification of L_TRAIT types under an inference context.

    Universally quantified parameters are rigid; projections unify
    structurally against other projections, while a projection meeting a
    rigid constructor reports [Projection_ambiguous] so {!Solve} can
    route the pair through normalization. *)

open Trait_lang

type 'a result = ('a, Journal.unify_failure) Stdlib.result

(** Journal one unification attempt and its outcome, attached to the
    innermost open goal/candidate: every call through {!unify} and
    {!unify_trait_refs}, and the failures the solver constructs itself
    (head/arity checks and missing associated-type bindings that
    short-circuit before reaching {!unify}).  A no-op while the journal
    is disabled. *)
val journal_attempt : Infer_ctx.t -> Ty.t -> Ty.t -> unit result -> unit

(** Unify two regions.  Erased and inference regions unify with anything;
    the trait solver never fails on regions alone. *)
val unify_region : Region.t -> Region.t -> unit result

(** Unify two types, binding inference variables in the context.  On
    failure, bindings already made are {e not} undone — callers wrap
    candidate probes in {!Infer_ctx.snapshot}. *)
val unify : Infer_ctx.t -> Ty.t -> Ty.t -> unit result

(** Resolve just the head of a type (follow bindings one level). *)
val shallow : Infer_ctx.t -> Ty.t -> Ty.t

val unify_trait_refs : Infer_ctx.t -> Ty.trait_ref -> Ty.trait_ref -> unit result

(** Probe unifiability under a snapshot; always rolls back. *)
val can_unify : Infer_ctx.t -> Ty.t -> Ty.t -> bool

(** Predicates of L_TRAIT: the paper's three core forms (trait bounds,
    projections, outlives) plus the load-bearing compiler-internal kinds
    of §4, including the stateful [NormalizesTo]. *)

type trait_pred = { self_ty : Ty.t; trait_ref : Ty.trait_ref }
type proj_pred = { projection : Ty.projection; term : Ty.t }

type t =
  | Trait of trait_pred  (** τ : T⟨τ̄⟩ *)
  | Projection of proj_pred  (** π == τ *)
  | TypeOutlives of Ty.t * Region.t  (** τ : ϱ *)
  | RegionOutlives of Region.t * Region.t
  | WellFormed of Ty.t  (** internal *)
  | ObjectSafe of Path.t  (** internal *)
  | ConstEvaluatable of string  (** internal: const-generic residue *)
  | NormalizesTo of Ty.projection * int
      (** internal, {e stateful}: normalize π into inference variable
          [?n]; the value is captured after the subtree executes (§4) *)

val trait_ : Ty.t -> Ty.trait_ref -> t
val projection_eq : Ty.projection -> Ty.t -> t
val outlives : Ty.t -> Region.t -> t
val well_formed : Ty.t -> t

(** Developer-facing kinds, shown by default; the rest sit behind the §4
    "show all predicates" toggle. *)
val is_user_visible : t -> bool

val is_stateful : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

(** Fold over every type embedded in the predicate. *)
val fold_tys : ('a -> Ty.t -> 'a) -> 'a -> t -> 'a

(** {!Ty.map_infer} over every type position, sharing-preserving the
    same way.  A [NormalizesTo]'s output variable is not a type position
    and stays as it is. *)
val map_infer : (Ty.t -> int -> Ty.t) -> t -> t

(** Inference variables anywhere in the predicate (a §5.2 baseline counts
    these). *)
val infer_vars : t -> int list

val has_infer : t -> bool
val self_ty : t -> Ty.t option
val trait_path : t -> Path.t option

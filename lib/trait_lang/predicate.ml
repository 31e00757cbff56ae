(** Predicates of L_TRAIT.

    The paper's grammar (Fig. 5) has three predicate forms:

      p ⟶ τ : T  |  τ : ϱ  |  π == τ

    §4 notes that the real compiler has fourteen predicate kinds, several of
    which are "important details specific to Rust" hidden from developers by
    default, plus *stateful* predicates such as [NormalizesTo].  We model
    the three core forms plus the most load-bearing internal kinds so that
    the extraction layer (implication heuristic, stateful-node capture,
    predicate-visibility toggle) has real work to do. *)

type trait_pred = { self_ty : Ty.t; trait_ref : Ty.trait_ref }

type proj_pred = { projection : Ty.projection; term : Ty.t }

type t =
  | Trait of trait_pred  (** τ : T⟨τ̄⟩ — the workhorse *)
  | Projection of proj_pred  (** π == τ *)
  | TypeOutlives of Ty.t * Region.t  (** τ : ϱ *)
  | RegionOutlives of Region.t * Region.t  (** ϱ₁ : ϱ₂ *)
  | WellFormed of Ty.t  (** internal: type is well-formed *)
  | ObjectSafe of Path.t  (** internal: trait is usable as [dyn] *)
  | ConstEvaluatable of string  (** internal: const-generic residue *)
  | NormalizesTo of Ty.projection * int
      (** internal, *stateful*: normalize π and write the result into
          inference variable [?n].  §4: "neither is the predicate useful
          nor is its subtree" — the extraction layer captures the value
          after the subtree executes rather than showing the node. *)

let trait_ self_ty trait_ref = Trait { self_ty; trait_ref }
let projection_eq projection term = Projection { projection; term }
let outlives ty region = TypeOutlives (ty, region)
let well_formed ty = WellFormed ty

(** The developer-facing predicate kinds (shown by default).  Everything
    else is behind the "show all predicates" toggle of §4. *)
let is_user_visible = function
  | Trait _ | Projection _ | TypeOutlives _ -> true
  | RegionOutlives _ | WellFormed _ | ObjectSafe _ | ConstEvaluatable _ | NormalizesTo _ ->
      false

let is_stateful = function NormalizesTo _ -> true | _ -> false

let equal a b =
  a == b
  ||
  match (a, b) with
  | Trait a, Trait b -> Ty.equal a.self_ty b.self_ty && Ty.equal_trait_ref a.trait_ref b.trait_ref
  | Projection a, Projection b ->
      Ty.equal_projection a.projection b.projection && Ty.equal a.term b.term
  | TypeOutlives (t1, r1), TypeOutlives (t2, r2) -> Ty.equal t1 t2 && Region.equal r1 r2
  | RegionOutlives (a1, b1), RegionOutlives (a2, b2) -> Region.equal a1 a2 && Region.equal b1 b2
  | WellFormed a, WellFormed b -> Ty.equal a b
  | ObjectSafe a, ObjectSafe b -> Path.equal a b
  | ConstEvaluatable a, ConstEvaluatable b -> String.equal a b
  | NormalizesTo (p1, v1), NormalizesTo (p2, v2) -> Ty.equal_projection p1 p2 && v1 = v2
  | _ -> false

let compare = Stdlib.compare

(** Fold [f] over every type embedded in the predicate. *)
let fold_tys f acc = function
  | Trait { self_ty; trait_ref } -> Ty.fold_args f (Ty.fold f acc self_ty) trait_ref.args
  | Projection { projection; term } -> Ty.fold f (Ty.fold f acc (Ty.Proj projection)) term
  | TypeOutlives (ty, _) | WellFormed ty -> Ty.fold f acc ty
  | RegionOutlives _ | ObjectSafe _ | ConstEvaluatable _ -> acc
  | NormalizesTo (p, v) -> Ty.fold f (Ty.fold f acc (Ty.Proj p)) (Ty.Infer v)

(** {!Ty.map_infer} over every type position.  A [NormalizesTo]'s output
    variable is not a type position and stays as it is. *)
let map_infer f p =
  match p with
  | Trait { self_ty; trait_ref } ->
      let self_ty' = Ty.map_infer f self_ty in
      let trait_ref' = Ty.map_infer_trait_ref f trait_ref in
      if self_ty' == self_ty && trait_ref' == trait_ref then p
      else Trait { self_ty = self_ty'; trait_ref = trait_ref' }
  | Projection { projection; term } ->
      let projection' = Ty.map_infer_projection f projection in
      let term' = Ty.map_infer f term in
      if projection' == projection && term' == term then p
      else Projection { projection = projection'; term = term' }
  | TypeOutlives (t, r) ->
      let t' = Ty.map_infer f t in
      if t' == t then p else TypeOutlives (t', r)
  | WellFormed t ->
      let t' = Ty.map_infer f t in
      if t' == t then p else WellFormed t'
  | RegionOutlives _ | ObjectSafe _ | ConstEvaluatable _ -> p
  | NormalizesTo (pr, v) ->
      let pr' = Ty.map_infer_projection f pr in
      if pr' == pr then p else NormalizesTo (pr', v)

(** Inference variables mentioned anywhere in the predicate.  One of the
    baseline ranking heuristics of §5.2 counts these. *)
let infer_vars p =
  fold_tys (fun acc t -> match t with Ty.Infer i -> i :: acc | _ -> acc) [] p
  |> List.sort_uniq Int.compare

let has_infer p =
  fold_tys (fun found t -> found || match t with Ty.Infer _ -> true | _ -> false) false p

(** The self type of the predicate, when it has one. *)
let self_ty = function
  | Trait { self_ty; _ } -> Some self_ty
  | Projection { projection; _ } -> Some projection.self_ty
  | TypeOutlives (ty, _) | WellFormed ty -> Some ty
  | NormalizesTo (p, _) -> Some p.self_ty
  | RegionOutlives _ | ObjectSafe _ | ConstEvaluatable _ -> None

(** The trait the predicate constrains, when it has one. *)
let trait_path = function
  | Trait { trait_ref; _ } -> Some trait_ref.trait
  | Projection { projection; _ } -> Some projection.proj_trait.trait
  | NormalizesTo (p, _) -> Some p.proj_trait.trait
  | ObjectSafe t -> Some t
  | _ -> None

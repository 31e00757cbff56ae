(** Coherence (overlap) checking.

    Rust enforces that no two impl blocks of the same trait can apply to
    the same type — the property that makes instance selection
    deterministic [Bottu et al. 2019].  §2.3 of the paper turns on exactly
    this: Bevy's two [IntoSystem] impls avoid overlap only because of a
    marker type parameter, shifting work onto inference.

    Like rustc's basic overlap check, we test whether the two impl heads
    unify after instantiating both with fresh inference variables; where-
    clauses are not consulted (no negative reasoning). *)

open Trait_lang

type overlap = {
  trait_ : Path.t;
  impl_a : Decl.impl;
  impl_b : Decl.impl;
  witness : Ty.t;  (** a type both impls would apply to *)
}

let overlap_of_pair (icx : Infer_ctx.t) (a : Decl.impl) (b : Decl.impl) : overlap option =
  if not (Path.equal a.impl_trait.trait b.impl_trait.trait) then None
  else begin
    let snap = Infer_ctx.snapshot icx in
    let sa = Infer_ctx.instantiate_generics icx a.impl_generics in
    let sb = Infer_ctx.instantiate_generics icx b.impl_generics in
    let self_a = Subst.ty sa a.impl_self and self_b = Subst.ty sb b.impl_self in
    let result =
      match Unify.unify icx self_a self_b with
      | Error _ -> None
      | Ok () -> (
          match
            Unify.unify_trait_refs icx (Subst.trait_ref sa a.impl_trait)
              (Subst.trait_ref sb b.impl_trait)
          with
          | Error _ -> None
          | Ok () ->
              Some
                {
                  trait_ = a.impl_trait.trait;
                  impl_a = a;
                  impl_b = b;
                  witness = Infer_ctx.resolve icx self_a;
                })
    in
    Infer_ctx.rollback_to icx snap;
    result
  end

(** Check every pair of same-trait impls that can overlap; returns all
    overlaps, in the order of the loop over all pairs of
    [Program.impls].

    Two rigid self heads that differ never unify (the fast-reject
    soundness argument, {!Fast_reject}), so an impl is probed only
    against the later impls of its head bucket
    ({!Program.impls_with_head}): those that share its rigid head or
    are wildcards, or, for a wildcard impl, every later impl of its
    trait.

    The orphan rule is checked separately by {!orphan_violations}. *)
let check (program : Program.t) : overlap list =
  let icx = Infer_ctx.for_program program in
  (* the impls after [impl] in its bucket, in declaration order *)
  let partners (impl : Decl.impl) =
    let rec after = function [] -> [] | i :: rest -> if i == impl then rest else after rest in
    after
      (Program.impls_with_head program impl.impl_trait.trait (Simplified.of_impl impl)).impls
  in
  let out = ref [] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          match overlap_of_pair icx a b with
          | Some o ->
              if Journal.enabled () then
                Journal.emit
                  (Journal.Overlap_detected
                     {
                       trait_ = o.trait_;
                       impl_a = o.impl_a.Decl.impl_id;
                       impl_b = o.impl_b.Decl.impl_id;
                       witness = o.witness;
                     });
              out := o :: !out
          | None -> ())
        (partners a))
    (Program.impls program);
  List.rev !out

(** The orphan rule: an impl is legal only if either the trait or the
    (head of the) self type is local to the impl's crate.  This is the
    rule the inertia heuristic's "orphaned trait bound" category reflects
    (§3.3). *)
type orphan = { o_impl : Decl.impl; o_trait : Path.t; o_self : Ty.t }

(** Does [ty] mention a nominal type belonging to [crate]?  Used for the
    "local type coverage" part of the orphan rule: Rust accepts
    [impl ExtTrait for Ext<Local>] because the local type appears
    (uncovered, in the full rule; we use the simpler mention test). *)
let mentions_crate_ty crate (ty : Ty.t) : bool =
  Ty.fold
    (fun acc t ->
      acc
      ||
      match Ty.head_path t with Some p -> Path.crate p = crate | None -> false)
    false ty

let is_orphan (impl : Decl.impl) : bool =
  let local_trait = Path.crate impl.impl_trait.trait = impl.impl_crate in
  let local_self = mentions_crate_ty impl.impl_crate impl.impl_self in
  let local_trait_args =
    List.exists
      (function Ty.Ty t -> mentions_crate_ty impl.impl_crate t | Ty.Lifetime _ -> false)
      impl.impl_trait.args
  in
  not (local_trait || local_self || local_trait_args)

let orphan_violations (program : Program.t) : orphan list =
  Program.impls program
  |> List.filter is_orphan
  |> List.map (fun (i : Decl.impl) ->
         { o_impl = i; o_trait = i.impl_trait.trait; o_self = i.impl_self })

(* ------------------------------------------------------------------ *)
(* Impl well-formedness: associated-type bounds. *)

(** A failed item bound: impl [wf_impl] binds [wf_assoc] to a type that
    does not satisfy the bound the trait declares on it.  [wf_tree] is
    the failing inference tree, debuggable like any other. *)
type wf_failure = {
  wf_impl : Decl.impl;
  wf_assoc : string;
  wf_bound : Ty.trait_ref;
  wf_tree : Trace.goal_node;
}

(** Check that every associated-type binding of every impl satisfies the
    bounds its trait declares — e.g. [trait AstAssocs { type Data:
    AssocData<Self>; }] requires each impl's [Data] to implement
    [AssocData<Self>].  The impl's own where-clauses are in scope, which
    is exactly how the §2.2 blanket impl sets up its cycle. *)
let check_impl_wf ?(cfg = Solve.default_config) (program : Program.t) : wf_failure list =
  let cache = Eval_cache.create () in
  let failures = ref [] in
  List.iter
    (fun (impl : Decl.impl) ->
      match Program.find_trait program impl.impl_trait.trait with
      | None -> ()
      | Some tr ->
          (* substitution: Self ↦ impl self type, trait params ↦ impl args *)
          let subst =
            let s = Subst.add_ty "Self" impl.impl_self Subst.empty in
            List.fold_left2
              (fun s param arg ->
                match arg with Ty.Ty t -> Subst.add_ty param t s | _ -> s)
              s tr.tr_generics.ty_params
              (List.filter (function Ty.Ty _ -> true | _ -> false) impl.impl_trait.args)
          in
          List.iter
            (fun (assoc : Decl.assoc_ty_decl) ->
              let binding =
                match
                  List.find_opt
                    (fun (b : Decl.assoc_ty_binding) -> b.bind_name = assoc.assoc_name)
                    impl.impl_assocs
                with
                | Some b -> Some b.bind_ty
                | None -> Option.map (Subst.ty subst) assoc.assoc_default
              in
              match binding with
              | None -> ()
              | Some binding_ty ->
                  List.iter
                    (fun bound ->
                      let bound = Subst.trait_ref subst bound in
                      let pred =
                        Predicate.Trait { self_ty = binding_ty; trait_ref = bound }
                      in
                      let st =
                        Solve.create ~cfg ~env:impl.impl_generics.where_clauses ~cache
                          program
                      in
                      let node =
                        Solve.solve st
                          ~origin:
                            (Printf.sprintf "the `type %s` binding in this impl"
                               assoc.assoc_name)
                          ~span:impl.impl_span pred
                      in
                      if not (Res.is_yes node.result) then
                        failures :=
                          { wf_impl = impl; wf_assoc = assoc.assoc_name; wf_bound = bound; wf_tree = node }
                          :: !failures)
                    assoc.assoc_bounds)
            tr.tr_assocs)
    (Program.impls program);
  List.rev !failures

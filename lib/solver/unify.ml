(** First-order unification of L_TRAIT types under an inference context.

    Universally quantified parameters ([Ty.Param]) are rigid: they unify
    only with themselves.  Projections unify structurally against other
    projections; mixing a projection with a rigid constructor is reported
    as [Projection_ambiguous] so the caller ({!Solve}) can route the pair
    through normalization instead. *)

open Trait_lang

type 'a result = ('a, Journal.unify_failure) Stdlib.result

let ( let* ) = Result.bind

(* Telemetry: one "attempt" per top-level unification operation (a call
   through the public entry points below), not per structural recursion —
   that is the number rustc's own `-Zself-profile` style counters report
   and what the candidate-assembly cost scales with. *)
let c_attempts = Telemetry.counter "unify.attempts"
let c_failures = Telemetry.counter "unify.failures"

(* Regions are unified coarsely: named regions must match, [Erased] and
   inference regions unify with anything (the trait solver never fails on
   regions alone; the borrow checker owns that, and the paper's model
   explicitly abstracts it). *)
let unify_region (a : Region.t) (b : Region.t) : unit result =
  match (a, b) with
  | Region.Erased, _ | _, Region.Erased | Region.Infer _, _ | _, Region.Infer _ -> Ok ()
  | _ -> if Region.equal a b then Ok () else Error (Journal.Region_mismatch (a, b))

let rec unify (icx : Infer_ctx.t) (a : Ty.t) (b : Ty.t) : unit result =
  let a = shallow icx a and b = shallow icx b in
  match (a, b) with
  | Ty.Infer i, Ty.Infer j -> if Infer_ctx.root icx i = Infer_ctx.root icx j then Ok ()
      else Ok (Infer_ctx.link icx i j)
  | Ty.Infer i, other | other, Ty.Infer i ->
      let other = Infer_ctx.resolve icx other in
      if Ty.mentions_infer (Infer_ctx.root icx i) other then Error (Journal.Occurs (i, other))
      else Ok (Infer_ctx.bind icx i other)
  | Ty.Unit, Ty.Unit | Ty.Bool, Ty.Bool | Ty.Int, Ty.Int | Ty.Uint, Ty.Uint
  | Ty.Float, Ty.Float | Ty.Str, Ty.Str ->
      Ok ()
  | Ty.Param x, Ty.Param y when String.equal x y -> Ok ()
  | Ty.Ref (r1, t1), Ty.Ref (r2, t2) | Ty.RefMut (r1, t1), Ty.RefMut (r2, t2) ->
      let* () = unify_region r1 r2 in
      unify icx t1 t2
  | Ty.Ctor (p1, a1), Ty.Ctor (p2, a2) ->
      if not (Path.equal p1 p2) then Error (Journal.Head_mismatch (a, b))
      else unify_args icx a b a1 a2
  | Ty.Tuple t1, Ty.Tuple t2 ->
      if List.length t1 <> List.length t2 then Error (Journal.Arity (a, b))
      else unify_list icx t1 t2
  | Ty.FnPtr (a1, r1), Ty.FnPtr (a2, r2) ->
      if List.length a1 <> List.length a2 then Error (Journal.Arity (a, b))
      else
        let* () = unify_list icx a1 a2 in
        unify icx r1 r2
  | Ty.FnItem (p1, a1, r1), Ty.FnItem (p2, a2, r2) ->
      if not (Path.equal p1 p2) then Error (Journal.Head_mismatch (a, b))
      else if List.length a1 <> List.length a2 then Error (Journal.Arity (a, b))
      else
        let* () = unify_list icx a1 a2 in
        unify icx r1 r2
  | Ty.Dynamic tr1, Ty.Dynamic tr2 ->
      if not (Path.equal tr1.trait tr2.trait) then Error (Journal.Head_mismatch (a, b))
      else unify_args icx a b tr1.args tr2.args
  | Ty.Proj p1, Ty.Proj p2 ->
      if
        Path.equal p1.proj_trait.trait p2.proj_trait.trait
        && String.equal p1.assoc p2.assoc
      then
        let* () = unify icx p1.self_ty p2.self_ty in
        let* () = unify_args icx a b p1.proj_trait.args p2.proj_trait.args in
        unify_args icx a b p1.assoc_args p2.assoc_args
      else Error (Journal.Projection_ambiguous (p1, b))
  | Ty.Proj p, other -> Error (Journal.Projection_ambiguous (p, other))
  | other, Ty.Proj p -> Error (Journal.Projection_ambiguous (p, other))
  | _ -> Error (Journal.Head_mismatch (a, b))

and unify_list icx xs ys =
  List.fold_left2 (fun acc x y -> let* () = acc in unify icx x y) (Ok ()) xs ys

and unify_args icx a b (xs : Ty.arg list) (ys : Ty.arg list) : unit result =
  if List.length xs <> List.length ys then Error (Journal.Arity (a, b))
  else
    List.fold_left2
      (fun acc x y ->
        let* () = acc in
        match (x, y) with
        | Ty.Ty tx, Ty.Ty ty -> unify icx tx ty
        | Ty.Lifetime rx, Ty.Lifetime ry -> unify_region rx ry
        | _ -> Error (Journal.Arity (a, b)))
      (Ok ()) xs ys

(** Resolve just the head of a type: follow inference-variable bindings
    one level without deep resolution. *)
and shallow icx (t : Ty.t) : Ty.t =
  match t with
  | Ty.Infer i -> (
      match Infer_ctx.probe icx i with Some t' -> shallow icx t' | None -> t)
  | _ -> t

(* Journal: one event per unification attempt, carrying the operand
   types (resolved against the context) and the structured failure,
   attached to the innermost open goal/candidate. *)
let journal_attempt icx a b (r : unit result) =
  if Journal.enabled () then
    Journal.emit
      (Journal.Unify
         {
           node = Journal.current_node ();
           left = Infer_ctx.resolve icx a;
           right = Infer_ctx.resolve icx b;
           failure = (match r with Ok () -> None | Error f -> Some f);
         })

(* Counting wrapper around the recursive core: shadows [unify] so every
   caller (including [can_unify] below and the whole solver) is counted,
   while structural recursion inside the core stays free. *)
let unify icx a b =
  Telemetry.incr c_attempts;
  let r = unify icx a b in
  (match r with Error _ -> Telemetry.incr c_failures | Ok () -> ());
  journal_attempt icx a b r;
  r

let unify_trait_refs icx (a : Ty.trait_ref) (b : Ty.trait_ref) : unit result =
  Telemetry.incr c_attempts;
  let r =
    if not (Path.equal a.trait b.trait) then
      Error (Journal.Head_mismatch (Ty.Dynamic a, Ty.Dynamic b))
    else unify_args icx (Ty.Dynamic a) (Ty.Dynamic b) a.args b.args
  in
  (match r with Error _ -> Telemetry.incr c_failures | Ok () -> ());
  journal_attempt icx (Ty.Dynamic a) (Ty.Dynamic b) r;
  r

(** Can [a] and [b] possibly unify?  Probes under a snapshot and rolls
    back regardless of the outcome. *)
let can_unify icx a b =
  let snap = Infer_ctx.snapshot icx in
  let r = unify icx a b in
  Infer_ctx.rollback_to icx snap;
  Result.is_ok r

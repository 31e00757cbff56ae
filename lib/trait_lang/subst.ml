(** Substitutions: finite maps from universally quantified parameters to
    types/regions, applied capture-free over L_TRAIT terms.

    The solver instantiates a declaration's generics with fresh inference
    variables by building a substitution here; impls' associated-type
    bindings are projected through the same machinery. *)

module StrMap = Map.Make (String)

type t = { tys : Ty.t StrMap.t; regions : Region.t StrMap.t }

let empty = { tys = StrMap.empty; regions = StrMap.empty }

let is_empty s = StrMap.is_empty s.tys && StrMap.is_empty s.regions

let add_ty name ty s = { s with tys = StrMap.add name ty s.tys }
let add_region name r s = { s with regions = StrMap.add name r s.regions }

let of_list ?(regions = []) tys =
  let s = List.fold_left (fun s (n, t) -> add_ty n t s) empty tys in
  List.fold_left (fun s (n, r) -> add_region n r s) s regions

let find_ty name s = StrMap.find_opt name s.tys
let find_region name s = StrMap.find_opt name s.regions

let bindings s = StrMap.bindings s.tys

let region_subst s = function
  | Region.Named n as r -> Option.value ~default:r (find_region n s)
  | r -> r

(* Application preserves sharing: every function below returns its input
   physically unchanged when the substitution is empty or binds nothing
   occurring in the term, and rebuilds only the spine above actual
   changes otherwise.  The unify path substitutes against mostly-ground
   terms constantly, so the unchanged case is the common one; returning
   the original allocation lets the [==] fast path in {!Ty.equal} keep
   firing downstream. *)

let rec ty s (t : Ty.t) : Ty.t =
  match t with
  | Unit | Bool | Int | Uint | Float | Str | Infer _ -> t
  | Param name -> Option.value ~default:t (find_ty name s)
  | Ref (r, t') ->
      let r' = region_subst s r and t2 = ty s t' in
      if r' == r && t2 == t' then t else Ref (r', t2)
  | RefMut (r, t') ->
      let r' = region_subst s r and t2 = ty s t' in
      if r' == r && t2 == t' then t else RefMut (r', t2)
  | Ctor (p, args) ->
      let args' = Ty.map_sharing (arg s) args in
      if args' == args then t else Ctor (p, args')
  | Tuple ts ->
      let ts' = Ty.map_sharing (ty s) ts in
      if ts' == ts then t else Tuple ts'
  | FnPtr (args, ret) ->
      let args' = Ty.map_sharing (ty s) args and ret' = ty s ret in
      if args' == args && ret' == ret then t else FnPtr (args', ret')
  | FnItem (p, args, ret) ->
      let args' = Ty.map_sharing (ty s) args and ret' = ty s ret in
      if args' == args && ret' == ret then t else FnItem (p, args', ret')
  | Dynamic tr ->
      let tr' = trait_ref s tr in
      if tr' == tr then t else Dynamic tr'
  | Proj p ->
      let p' = projection s p in
      if p' == p then t else Proj p'

and arg s (a : Ty.arg) : Ty.arg =
  match a with
  | Ty t ->
      let t' = ty s t in
      if t' == t then a else Ty t'
  | Lifetime r ->
      let r' = region_subst s r in
      if r' == r then a else Lifetime r'

and trait_ref s (tr : Ty.trait_ref) : Ty.trait_ref =
  let args' = Ty.map_sharing (arg s) tr.args in
  if args' == tr.args then tr else { tr with args = args' }

and projection s (p : Ty.projection) : Ty.projection =
  let self_ty' = ty s p.self_ty
  and proj_trait' = trait_ref s p.proj_trait
  and assoc_args' = Ty.map_sharing (arg s) p.assoc_args in
  if self_ty' == p.self_ty && proj_trait' == p.proj_trait && assoc_args' == p.assoc_args
  then p
  else { p with self_ty = self_ty'; proj_trait = proj_trait'; assoc_args = assoc_args' }

let predicate s (p : Predicate.t) : Predicate.t =
  if is_empty s then p
  else
    match p with
    | Trait { self_ty; trait_ref = tr } ->
        let self_ty' = ty s self_ty and tr' = trait_ref s tr in
        if self_ty' == self_ty && tr' == tr then p
        else Trait { self_ty = self_ty'; trait_ref = tr' }
    | Projection { projection = pr; term } ->
        let pr' = projection s pr and term' = ty s term in
        if pr' == pr && term' == term then p
        else Projection { projection = pr'; term = term' }
    | TypeOutlives (t, r) ->
        let t' = ty s t and r' = region_subst s r in
        if t' == t && r' == r then p else TypeOutlives (t', r')
    | RegionOutlives (a, b) ->
        let a' = region_subst s a and b' = region_subst s b in
        if a' == a && b' == b then p else RegionOutlives (a', b')
    | WellFormed t ->
        let t' = ty s t in
        if t' == t then p else WellFormed t'
    | ObjectSafe _ | ConstEvaluatable _ -> p
    | NormalizesTo (pr, v) ->
        let pr' = projection s pr in
        if pr' == pr then p else NormalizesTo (pr', v)

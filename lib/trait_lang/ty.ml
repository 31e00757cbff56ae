(** Types of L_TRAIT (Fig. 5 of the paper).

    τ ⟶ unit | α | &ϱ τ | &ϱ mut τ | π | S⟨τ̄⟩ | τ₁ × τ₂ | τ₁ → τ₂ | ∃α. p̄

    Extensions beyond the paper's minimal grammar, needed to express its
    motivating examples faithfully:
    - primitive scalars ([i32], [usize], [str], [bool]) as built-in
      constructors;
    - *function items*: Rust gives each [fn] a distinct zero-sized type
      printed as [fn(Timer) {run_timer}], essential to §2.3;
    - trait objects [dyn T], used by some corpus programs;
    - inference variables [?n], which the solver introduces and which make
      a predicate's result [maybe]. *)

type t =
  | Unit
  | Bool
  | Int  (** [i32] *)
  | Uint  (** [usize] *)
  | Float
  | Str
  | Param of string  (** a universally quantified type parameter α *)
  | Infer of int  (** an inference variable ?n *)
  | Ref of Region.t * t  (** [&'r τ] *)
  | RefMut of Region.t * t  (** [&'r mut τ] *)
  | Ctor of Path.t * arg list  (** a nominal application S⟨τ̄⟩ *)
  | Tuple of t list  (** n-ary; [Tuple []] is not used (see [Unit]) *)
  | FnPtr of t list * t  (** [fn(τ̄) -> τ] *)
  | FnItem of Path.t * t list * t  (** [fn(τ̄) -> τ {name}] — a named fn item *)
  | Dynamic of trait_ref  (** [dyn T⟨τ̄⟩] *)
  | Proj of projection  (** an unnormalized associated-type projection π *)

(** A trait instance T⟨τ̄, ϱ̄⟩: a trait path applied to arguments.  The
    *self* type is not part of the trait ref; a full bound pairs a self
    type with a trait ref (see {!Predicate.trait_pred}). *)
and trait_ref = { trait : Path.t; args : arg list }

(** π ⟶ τ₁.D_T⟨τ̄₂, ϱ̄⟩ — an associated-type projection
    [<τ as T⟨τ̄⟩>::D⟨τ̄₂⟩]. *)
and projection = {
  self_ty : t;
  proj_trait : trait_ref;
  assoc : string;
  assoc_args : arg list;
}

(** Generic arguments are types or regions (const generics are omitted per
    the paper's idealization). *)
and arg = Ty of t | Lifetime of Region.t

let unit = Unit
let bool = Bool
let int = Int
let uint = Uint
let float = Float
let str = Str
let param name = Param name
let infer i = Infer i
let ref_ ?(region = Region.Erased) ty = Ref (region, ty)
let ref_mut ?(region = Region.Erased) ty = RefMut (region, ty)
let ctor path args = Ctor (path, List.map (fun t -> Ty t) args)
let ctor_args path args = Ctor (path, args)
(* The empty tuple is [Unit]; a one-element list is a genuine 1-tuple
   [(τ,)], distinct from τ itself, exactly as in Rust. *)
let tuple tys = match tys with [] -> Unit | _ -> Tuple tys
let fn_ptr args ret = FnPtr (args, ret)
let fn_item path args ret = FnItem (path, args, ret)
let dynamic tr = Dynamic tr
let proj p = Proj p

let trait_ref ?(args = []) trait = { trait; args = List.map (fun t -> Ty t) args }
let trait_ref_args trait args = { trait; args }

let projection ?(assoc_args = []) self_ty proj_trait assoc =
  { self_ty; proj_trait; assoc; assoc_args }

(* ------------------------------------------------------------------ *)
(* Structural equality (no unification; inference vars compare by id).
   Physical equality short-circuits every case: resolution and the maps
   below hand the program's own terms back unchanged, so on the hot
   solver paths the deep walk below rarely runs. *)

let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Unit, Unit | Bool, Bool | Int, Int | Uint, Uint | Float, Float | Str, Str -> true
  | Param a, Param b -> String.equal a b
  | Infer a, Infer b -> Int.equal a b
  | Ref (r1, t1), Ref (r2, t2) | RefMut (r1, t1), RefMut (r2, t2) ->
      Region.equal r1 r2 && equal t1 t2
  | Ctor (p1, a1), Ctor (p2, a2) -> Path.equal p1 p2 && equal_args a1 a2
  | Tuple t1, Tuple t2 -> List.length t1 = List.length t2 && List.for_all2 equal t1 t2
  | FnPtr (a1, r1), FnPtr (a2, r2) ->
      List.length a1 = List.length a2 && List.for_all2 equal a1 a2 && equal r1 r2
  | FnItem (p1, a1, r1), FnItem (p2, a2, r2) ->
      Path.equal p1 p2
      && List.length a1 = List.length a2
      && List.for_all2 equal a1 a2 && equal r1 r2
  | Dynamic t1, Dynamic t2 -> equal_trait_ref t1 t2
  | Proj p1, Proj p2 -> equal_projection p1 p2
  | _ -> false

and equal_arg a b =
  a == b
  ||
  match (a, b) with
  | Ty a, Ty b -> equal a b
  | Lifetime a, Lifetime b -> Region.equal a b
  | _ -> false

and equal_args a b =
  a == b || (List.length a = List.length b && List.for_all2 equal_arg a b)

and equal_trait_ref a b =
  a == b || (Path.equal a.trait b.trait && equal_args a.args b.args)

and equal_projection a b =
  a == b
  || equal a.self_ty b.self_ty
     && equal_trait_ref a.proj_trait b.proj_trait
     && String.equal a.assoc b.assoc
     && equal_args a.assoc_args b.assoc_args

let compare = Stdlib.compare

(* ------------------------------------------------------------------ *)
(* Sharing-preserving maps: a term comes back physically when nothing in
   it changes, and only the spine above a change is rebuilt, so the
   [==] fast paths above keep firing downstream. *)

let rec map_sharing f l =
  match l with
  | [] -> l
  | x :: rest ->
      let x' = f x in
      let rest' = map_sharing f rest in
      if x' == x && rest' == rest then l else x' :: rest'

let rec map_infer f (t : t) : t =
  match t with
  | Unit | Bool | Int | Uint | Float | Str | Param _ -> t
  | Infer v -> f t v
  | Ref (r, t') ->
      let t2 = map_infer f t' in
      if t2 == t' then t else Ref (r, t2)
  | RefMut (r, t') ->
      let t2 = map_infer f t' in
      if t2 == t' then t else RefMut (r, t2)
  | Ctor (p, args) ->
      let args' = map_sharing (map_infer_arg f) args in
      if args' == args then t else Ctor (p, args')
  | Tuple ts ->
      let ts' = map_sharing (map_infer f) ts in
      if ts' == ts then t else Tuple ts'
  | FnPtr (args, ret) ->
      let args' = map_sharing (map_infer f) args in
      let ret' = map_infer f ret in
      if args' == args && ret' == ret then t else FnPtr (args', ret')
  | FnItem (p, args, ret) ->
      let args' = map_sharing (map_infer f) args in
      let ret' = map_infer f ret in
      if args' == args && ret' == ret then t else FnItem (p, args', ret')
  | Dynamic tr ->
      let tr' = map_infer_trait_ref f tr in
      if tr' == tr then t else Dynamic tr'
  | Proj p ->
      let p' = map_infer_projection f p in
      if p' == p then t else Proj p'

and map_infer_arg f a =
  match a with
  | Ty t ->
      let t' = map_infer f t in
      if t' == t then a else Ty t'
  | Lifetime _ -> a

and map_infer_trait_ref f tr =
  let args' = map_sharing (map_infer_arg f) tr.args in
  if args' == tr.args then tr else { tr with args = args' }

and map_infer_projection f p =
  let self_ty' = map_infer f p.self_ty in
  let proj_trait' = map_infer_trait_ref f p.proj_trait in
  let assoc_args' = map_sharing (map_infer_arg f) p.assoc_args in
  if self_ty' == p.self_ty && proj_trait' == p.proj_trait && assoc_args' == p.assoc_args
  then p
  else { p with self_ty = self_ty'; proj_trait = proj_trait'; assoc_args = assoc_args' }

(* ------------------------------------------------------------------ *)
(* Folds. *)

(** [fold f acc ty] visits every sub-type of [ty] (including [ty] itself),
    pre-order. *)
let rec fold f acc ty =
  let acc = f acc ty in
  match ty with
  | Unit | Bool | Int | Uint | Float | Str | Param _ | Infer _ -> acc
  | Ref (_, t) | RefMut (_, t) -> fold f acc t
  | Ctor (_, args) -> fold_args f acc args
  | Tuple ts -> List.fold_left (fold f) acc ts
  | FnPtr (args, ret) -> fold f (List.fold_left (fold f) acc args) ret
  | FnItem (_, args, ret) -> fold f (List.fold_left (fold f) acc args) ret
  | Dynamic tr -> fold_args f acc tr.args
  | Proj p ->
      let acc = fold f acc p.self_ty in
      let acc = fold_args f acc p.proj_trait.args in
      fold_args f acc p.assoc_args

and fold_args f acc args =
  List.fold_left (fun acc -> function Ty t -> fold f acc t | Lifetime _ -> acc) acc args

(** The number of type nodes, a proxy for textual size. *)
let size ty = fold (fun n _ -> n + 1) 0 ty

(** All inference variables occurring in [ty], deduplicated, ascending. *)
let infer_vars ty =
  fold (fun acc t -> match t with Infer i -> i :: acc | _ -> acc) [] ty
  |> List.sort_uniq Int.compare

(** All universally quantified parameters occurring in [ty]. *)
let params ty =
  fold (fun acc t -> match t with Param p -> p :: acc | _ -> acc) [] ty
  |> List.sort_uniq String.compare

let has_infer ty = fold (fun found t -> found || match t with Infer _ -> true | _ -> false) false ty

(** Does [ty] mention inference variable [i]?  (occurs check) *)
let mentions_infer i ty =
  fold (fun found t -> found || match t with Infer j -> i = j | _ -> false) false ty

(** Is this a function-shaped type?  Used by the inertia heuristic to
    recognize "function trait bound" categories. *)
let is_fn_like = function FnPtr _ | FnItem _ -> true | _ -> false

(** The head constructor path of a nominal type, if any.  Candidate
    assembly uses head paths to pre-filter impls cheaply. *)
let head_path = function
  | Ctor (p, _) | FnItem (p, _, _) -> Some p
  | Dynamic tr -> Some tr.trait
  | _ -> None

(** Provenance of a type's head: [Some Local] for a locally defined
    nominal head, [Some (External _)] for a dependency's, [None] when the
    head is structural (tuples, refs, fn pointers, primitives, params). *)
let head_crate ty = Option.map Path.crate (head_path ty)

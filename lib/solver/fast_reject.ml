(** Simplified-self-type fast reject.  See the interface for the
    design and the soundness argument. *)

open Trait_lang

let c_hits = Telemetry.counter "index.hits"
let c_rejects = Telemetry.counter "index.rejects"
let c_wildcard = Telemetry.counter "index.wildcard"

(* ------------------------------------------------------------------ *)
(* Simplified types *)

type simplified =
  | S_unit
  | S_bool
  | S_int
  | S_uint
  | S_float
  | S_str
  | S_adt of Path.t
  | S_tuple of int
  | S_ref
  | S_ref_mut
  | S_fn_ptr of int
  | S_fn_item of Path.t
  | S_dyn of Path.t
  | S_param of string

let equal_simplified a b =
  match (a, b) with
  | S_unit, S_unit | S_bool, S_bool | S_int, S_int | S_uint, S_uint
  | S_float, S_float | S_str, S_str | S_ref, S_ref | S_ref_mut, S_ref_mut ->
      true
  | S_adt p, S_adt q | S_fn_item p, S_fn_item q | S_dyn p, S_dyn q -> Path.equal p q
  | S_tuple n, S_tuple m | S_fn_ptr n, S_fn_ptr m -> n = m
  | S_param x, S_param y -> String.equal x y
  | _ -> false

let simplified_to_string = function
  | S_unit -> "unit"
  | S_bool -> "bool"
  | S_int -> "int"
  | S_uint -> "uint"
  | S_float -> "float"
  | S_str -> "str"
  | S_ref -> "&"
  | S_ref_mut -> "&mut"
  | S_adt p -> "adt " ^ Path.to_string p
  | S_tuple n -> Printf.sprintf "tuple/%d" n
  | S_fn_ptr n -> Printf.sprintf "fn-ptr/%d" n
  | S_fn_item p -> "fn-item " ^ Path.to_string p
  | S_dyn p -> "dyn " ^ Path.to_string p
  | S_param x -> "param " ^ x

(* The goal side: the caller hands us the shallow-resolved self type.
   An unresolved inference variable or an unnormalized projection head
   can become anything, so both are wildcards.  A parameter is rigid —
   it unifies only with itself or with an instantiated blanket impl —
   and since no impl head is ever [S_param] (see below), a
   parameter-headed goal keeps exactly the wildcard impls. *)
let simplify_goal : Ty.t -> simplified option = function
  | Ty.Infer _ | Ty.Proj _ -> None
  | Ty.Unit -> Some S_unit
  | Ty.Bool -> Some S_bool
  | Ty.Int -> Some S_int
  | Ty.Uint -> Some S_uint
  | Ty.Float -> Some S_float
  | Ty.Str -> Some S_str
  | Ty.Param x -> Some (S_param x)
  | Ty.Ref _ -> Some S_ref
  | Ty.RefMut _ -> Some S_ref_mut
  | Ty.Ctor (p, _) -> Some (S_adt p)
  | Ty.Tuple ts -> Some (S_tuple (List.length ts))
  | Ty.FnPtr (args, _) -> Some (S_fn_ptr (List.length args))
  | Ty.FnItem (p, _, _) -> Some (S_fn_item p)
  | Ty.Dynamic tr -> Some (S_dyn tr.Ty.trait)

(* The impl side: candidate evaluation substitutes the impl's generics
   with fresh inference variables before unifying, so a parameter head
   (blanket impl) is a wildcard; a projection head may normalize to
   anything.  Everything else keeps its rigid head under both
   substitution and deep normalization. *)
let simplify_impl (impl : Decl.impl) : simplified option =
  match impl.Decl.impl_self with
  | Ty.Param _ | Ty.Proj _ | Ty.Infer _ -> None
  | ty -> simplify_goal ty

let compatible goal impl =
  match (goal, impl) with
  | None, _ | _, None -> true
  | Some g, Some i -> equal_simplified g i

(* ------------------------------------------------------------------ *)
(* Candidate assembly *)

let candidates (p : Program.t) (trait_ : Path.t) (self : Ty.t) : Decl.impl list =
  let impls = Program.impls_of_trait p trait_ in
  let total = List.length impls in
  match simplify_goal self with
  | None ->
      Telemetry.add c_hits total;
      Telemetry.incr c_wildcard;
      impls
  | Some _ as goal ->
      let found = List.filter (fun impl -> compatible goal (simplify_impl impl)) impls in
      let kept = List.length found in
      Telemetry.add c_hits kept;
      Telemetry.add c_rejects (total - kept);
      found

let clear () = ()

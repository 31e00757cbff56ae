(** Simplified self-type heads, the key of rustc-style fast reject.

    A self type collapses to its head constructor, as far as
    unification can tell without looking deeper: constructors and fn
    items by path, tuples and fn pointers by arity, [&]/[&mut] and the
    primitives by tag, trait objects by trait, parameters by name
    (rigid: they unify only with themselves).  Two types whose heads
    differ never unify.  A head is [None] ("matches everything")
    wherever unification could see through it. *)

type t =
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

let equal a b =
  match (a, b) with
  | S_unit, S_unit | S_bool, S_bool | S_int, S_int | S_uint, S_uint
  | S_float, S_float | S_str, S_str | S_ref, S_ref | S_ref_mut, S_ref_mut ->
      true
  | S_adt p, S_adt q | S_fn_item p, S_fn_item q | S_dyn p, S_dyn q -> Path.equal p q
  | S_tuple n, S_tuple m | S_fn_ptr n, S_fn_ptr m -> n = m
  | S_param x, S_param y -> String.equal x y
  | _ -> false

(** The goal side: the caller hands over the shallow-resolved self type.
    An unresolved inference variable or an unnormalized projection head
    can become anything, so both are wildcards.  A parameter is rigid —
    it unifies only with itself or with an instantiated blanket impl —
    and since no impl head is ever [S_param] (see {!of_impl}), a
    parameter-headed goal keeps exactly the wildcard impls. *)
let of_goal : Ty.t -> t option = function
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

(** The impl side: candidate evaluation substitutes the impl's generics
    with fresh inference variables before unifying, so a parameter head
    (blanket impl) is a wildcard; a projection head may normalize to
    anything.  Everything else keeps its rigid head under both
    substitution and deep normalization. *)
let of_impl (impl : Decl.impl) : t option =
  match impl.Decl.impl_self with
  | Ty.Param _ | Ty.Proj _ | Ty.Infer _ -> None
  | ty -> of_goal ty

(* Monomorphic, consistent with [equal]: the bucket table hashes once
   per impl and per rigid-head goal. *)
let hash = function
  | S_unit -> 1
  | S_bool -> 2
  | S_int -> 3
  | S_uint -> 4
  | S_float -> 5
  | S_str -> 6
  | S_ref -> 7
  | S_ref_mut -> 8
  | S_adt p -> Path.hash p
  | S_fn_item p -> (Path.hash p * 31) + 9
  | S_dyn p -> (Path.hash p * 31) + 10
  | S_tuple n -> (n * 31) + 11
  | S_fn_ptr n -> (n * 31) + 12
  | S_param x -> (String.hash x * 31) + 13

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

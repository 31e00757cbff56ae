(** Simplified-self-type fast reject for impl candidate assembly.

    rustc prunes the impl set for a trait goal by "fast reject": the
    self type is collapsed to a {e simplified type} — its head
    constructor — and impls whose (simplified) self-type head cannot
    possibly unify with the goal's are never probed.  This module does
    the same for L_TRAIT with one linear pass over the trait's impls
    per goal, keeping the compatible ones in declaration order.

    Soundness is by construction: a simplified head is [None]
    ("matches everything") whenever unification could see through it —
    inference variables, projections awaiting normalization, and impl
    self types headed by a generic parameter (blanket impls, whose
    instantiated head is a fresh inference variable).  Rejection only
    happens between two {e rigid} heads that {!Unify.unify} is
    guaranteed to fail on. *)

open Trait_lang

(** The head constructor of a type, as far as unification can tell
    without looking deeper.  Mirrors the rigid cases of {!Unify.unify}:
    constructors and fn items by path, tuples and fn pointers by arity,
    [&]/[&mut] and the primitives by tag, trait objects by trait,
    parameters by name (rigid: they unify only with themselves). *)
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

val equal_simplified : simplified -> simplified -> bool
val simplified_to_string : simplified -> string

(** Simplify a goal self type (shallow-resolved by the caller).
    [None] — an inference variable or unnormalized projection — matches
    every impl. *)
val simplify_goal : Ty.t -> simplified option

(** Simplify an impl's declared self type.  [None] — a generic
    parameter (blanket impl) or projection head — matches every goal. *)
val simplify_impl : Decl.impl -> simplified option

(** Can a goal with simplified head [goal] possibly unify with an impl
    of simplified head [impl]?  Wildcards ([None]) match everything. *)
val compatible : simplified option -> simplified option -> bool

(** The candidate impls of [trait_] whose self-type head is compatible
    with goal self type [self], in declaration order.  Gathers
    [index.{hits,rejects,wildcard}] telemetry. *)
val candidates : Program.t -> Path.t -> Ty.t -> Decl.impl list

(** A no-op.  Candidate assembly keeps no state between calls; this
    stays for callers that reset every solver-side table between runs. *)
val clear : unit -> unit

(** Types of L_TRAIT (Fig. 5), extended with the features the paper's
    motivating examples need: primitive scalars, function items (each
    Rust [fn] has its own zero-sized type, essential to §2.3), trait
    objects, and inference variables. *)

type t =
  | Unit
  | Bool
  | Int  (** [i32] *)
  | Uint  (** [usize] *)
  | Float
  | Str
  | Param of string  (** a universally quantified type parameter α *)
  | Infer of int  (** an inference variable ?n *)
  | Ref of Region.t * t
  | RefMut of Region.t * t
  | Ctor of Path.t * arg list  (** a nominal application S⟨τ̄⟩ *)
  | Tuple of t list  (** n-ary; 1-tuples [(τ,)] are distinct from τ *)
  | FnPtr of t list * t
  | FnItem of Path.t * t list * t  (** [fn(τ̄) -> τ {name}] *)
  | Dynamic of trait_ref  (** [dyn T⟨τ̄⟩] *)
  | Proj of projection  (** an unnormalized associated-type projection π *)

(** A trait instance T⟨τ̄, ϱ̄⟩; the self type is supplied separately. *)
and trait_ref = { trait : Path.t; args : arg list }

(** π ⟶ [<τ as T⟨τ̄⟩>::D⟨τ̄₂⟩]. *)
and projection = {
  self_ty : t;
  proj_trait : trait_ref;
  assoc : string;
  assoc_args : arg list;
}

and arg = Ty of t | Lifetime of Region.t

(** {1 Constructors} *)

val unit : t
val bool : t
val int : t
val uint : t
val float : t
val str : t
val param : string -> t
val infer : int -> t
val ref_ : ?region:Region.t -> t -> t
val ref_mut : ?region:Region.t -> t -> t
val ctor : Path.t -> t list -> t
val ctor_args : Path.t -> arg list -> t

(** [tuple []] is {!Unit}; one-element lists make genuine 1-tuples. *)
val tuple : t list -> t

val fn_ptr : t list -> t -> t
val fn_item : Path.t -> t list -> t -> t
val dynamic : trait_ref -> t
val proj : projection -> t
val trait_ref : ?args:t list -> Path.t -> trait_ref
val trait_ref_args : Path.t -> arg list -> trait_ref
val projection : ?assoc_args:arg list -> t -> trait_ref -> string -> projection

(** {1 Equality (structural; inference variables compare by id)} *)

val equal : t -> t -> bool
val equal_arg : arg -> arg -> bool
val equal_args : arg list -> arg list -> bool
val equal_trait_ref : trait_ref -> trait_ref -> bool
val equal_projection : projection -> projection -> bool
val compare : t -> t -> int

(** {1 Sharing-preserving maps} *)

(** [List.map f l], but [l] itself, allocating nothing, when [f] returns
    every element physically unchanged; otherwise only the spine down to
    the last changed element is rebuilt.  Elements are mapped left to
    right. *)
val map_sharing : ('a -> 'a) -> 'a list -> 'a list

(** Replace every inference variable: [f node v] gets the [Infer v] node
    itself and returns its replacement.  The term comes back physically
    when [f] returns every node it is given, and otherwise only the
    spine above a change is rebuilt.  Variables are visited left to
    right, in printing order. *)
val map_infer : (t -> int -> t) -> t -> t

val map_infer_arg : (t -> int -> t) -> arg -> arg
val map_infer_trait_ref : (t -> int -> t) -> trait_ref -> trait_ref
val map_infer_projection : (t -> int -> t) -> projection -> projection

(** {1 Folds and queries} *)

(** Pre-order visit of every sub-type, including the type itself. *)
val fold : ('a -> t -> 'a) -> 'a -> t -> 'a

val fold_args : ('a -> t -> 'a) -> 'a -> arg list -> 'a

(** Number of type nodes — a proxy for textual size. *)
val size : t -> int

(** Inference variables, deduplicated, ascending. *)
val infer_vars : t -> int list

val params : t -> string list
val has_infer : t -> bool

(** Occurs check: does [?i] appear in the type? *)
val mentions_infer : int -> t -> bool

(** Function-shaped?  (inertia's function-trait-bound categories) *)
val is_fn_like : t -> bool

(** The head constructor path of a nominal type, if any. *)
val head_path : t -> Path.t option

(** Provenance of the head: structural heads (tuples, refs, primitives,
    params) have none. *)
val head_crate : t -> Path.crate option

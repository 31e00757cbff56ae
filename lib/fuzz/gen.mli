(** Seeded, size-bounded random generation of well-formed L_TRAIT
    programs.

    The generator works on a small declaration IR ({!spec}) that renders
    deterministically to surface syntax, so the shrinker can edit the
    structure and re-render instead of splicing text.  Programs are
    well-formed by construction — every referenced name is declared and
    every generic application matches its declaration's arity — and are
    biased toward the paper's three failure modes: deep elided
    requirement chains (§2.1), overflow cycles (§2.2, E0275), and
    ambiguity branch points (§2.3). *)

(** {1 The declaration IR} *)

type ty =
  | Prim of string  (** ["i32"], ["String"], ["()"], ... — rendered verbatim *)
  | Name of string * ty list  (** struct or in-scope type parameter *)
  | Tup of ty list  (** non-empty; 1-tuples render with the trailing comma *)
  | Ref of ty
  | Fn_ptr of ty list * ty option
  | Dyn of string
  | Hole  (** [_] — an inference hole, goals only *)
  | Proj of ty * bound * string  (** [<τ as Trait<..>>::Assoc] *)

(** A trait bound: name, positional args, and [Assoc = τ] binding sugar. *)
and bound = { b_trait : string; b_args : ty list; b_bindings : (string * ty) list }

type pred =
  | P_trait of ty * bound  (** [τ: T<..>] *)
  | P_proj_eq of ty * bound * string * ty  (** [<τ as T<..>>::A == τ'] *)

type assoc_decl = { a_name : string; a_bounds : bound list; a_default : ty option }

type decl =
  | Struct of { s_name : string; s_arity : int }
  | Trait of {
      t_name : string;
      t_arity : int;
      t_supers : bound list;
      t_assocs : assoc_decl list;
    }
  | Impl of {
      i_params : string list;
      i_trait : bound;
      i_self : ty;
      i_where : pred list;
      i_bindings : (string * ty) list;
    }
  | Goal of pred

type spec = decl list

(** {1 Generation} *)

(** Deterministic generation: the same [(seed, iter, size)] triple always
    yields the same program, independent of any other iteration.  [size]
    scales declaration counts and type depth (1 = tiny .. 4 = large;
    clamped). *)
val generate : seed:int -> iter:int -> size:int -> spec

val default_size : int

(** Deterministic mega-library generation for the [scale] bench suite:
    a program with [impls] impl blocks shaped like a big real crate —
    ~75% head-distinct impls (one rigid self head each), ~20%
    overlapping same-head impls in constant-width families of 8 whose
    family count grows with [impls], a constant-size generic-self
    chain, and exactly three true blanket (wildcard) impls regardless
    of [impls].  [goals] cycle over
    provable hits in both families, decisive misses, and a depth-8
    chain goal.  [seed] jitters trait assignment within families; the
    structural proportions are fixed. *)
val generate_mega : goals:int -> seed:int -> impls:int -> spec

(** {1 Rendering and inspection} *)

(** Render to L_TRAIT surface syntax (parseable by {!Trait_lang.Parser}). *)
val render : spec -> string

val render_ty : ty -> string
val render_pred : pred -> string

(** Number of top-level declarations (structs + traits + impls + goals). *)
val decl_count : spec -> int

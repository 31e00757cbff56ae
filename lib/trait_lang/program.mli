(** A whole L_TRAIT program: the context (tydecls, trdecls, impls, fns)
    plus the root obligations ({i goals}) that type-checking the user's
    code would generate, with the indexes the solver needs. *)

type goal = {
  goal_pred : Predicate.t;
  goal_span : Span.t;  (** where the obligation arose *)
  goal_origin : string;  (** e.g. "the call to .load(conn)" *)
}

type t

val empty : t

exception Duplicate_decl of Path.t

val add_type : Decl.tydecl -> t -> t
val add_trait : Decl.trdecl -> t -> t
val add_fn : Decl.fndecl -> t -> t
val add_impl : Decl.impl -> t -> t

(** Append a goal (goals solve in insertion order). *)
val add_goal : goal -> t -> t

(** Replace the goal list (e.g. to reorder). *)
val with_goals : goal list -> t -> t

val add_decl : Decl.t -> t -> t

(** Fold {!add_decl}, then {!add_goal}: quadratic in a trait's impl count. *)
val of_decls : ?goals:goal list -> Decl.t list -> t

(** {!of_decls} in one linear pass: each trait's impl list is consed in
    reverse and reversed once, and [goals] is taken as is. *)
val build : goals:goal list -> Decl.t list -> t

val types : t -> Decl.tydecl list
val traits : t -> Decl.trdecl list
val impls : t -> Decl.impl list
val fns : t -> Decl.fndecl list
val goals : t -> goal list

val find_type : t -> Path.t -> Decl.tydecl option
val find_trait : t -> Path.t -> Decl.trdecl option
val find_fn : t -> Path.t -> Decl.fndecl option

(** All impl blocks of a trait — the CtxtLinks Fig. 8b listing. *)
val impls_of_trait : t -> Path.t -> Decl.impl list

(** Some of a trait's impls, in declaration order: [count] of them, and
    [rejected] more that the bucket leaves out. *)
type bucket = { impls : Decl.impl list; count : int; rejected : int }

(** The impls of a trait whose simplified self head is compatible with
    [head], in declaration order: all of them for [None]; for a rigid
    head, the impls with that head merged with the wildcard (blanket)
    impls, or the wildcards alone if no impl has it.  The first
    rigid-head query buckets all of the trait's impls in one pass
    ([index.builds]); [add_impl] gives its trait fresh buckets, other
    edits keep them. *)
val impls_with_head : t -> Path.t -> Simplified.t option -> bucket

val find_impl : t -> int -> Decl.impl option

(** Resolve an unqualified item name to its unique path. *)
val resolve_name :
  t -> string -> (Path.t, [ `Not_found of string | `Ambiguous of string * Path.t list ]) result

val decl_count : t -> int

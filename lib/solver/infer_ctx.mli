(** The inference context: a growable union-find table of type inference
    variables with an undo log for snapshot/rollback — the discipline
    rustc's [InferCtxt] uses for speculative candidate probing. *)

open Trait_lang

(** The state of one table slot.  Exposed for the evaluation cache, which
    captures and replays slot ranges verbatim. *)
type binding = Unbound | Link of int | Bound of Ty.t

type t

val create : ?first_var:int -> unit -> t

(** A context whose fresh variables start above every inference variable
    mentioned in the program's goals. *)
val for_program : Program.t -> t

(** Allocate a fresh inference variable. *)
val fresh : t -> int

val fresh_ty : t -> Ty.t
val num_vars : t -> int

(** {1 Snapshots} *)

type snapshot

val snapshot : t -> snapshot

(** Restart the snapshot serials from 0.  Callers reset
    before a solve so its journal stream is deterministic; don't call
    mid-solve. *)
val reset_snapshot_serial : unit -> unit

(** Undo every binding made since the snapshot was opened. *)
val rollback_to : t -> snapshot -> unit

(** The slots a probe set, oldest first, with their final bindings. *)
type bindings = (int * binding) list

(** {!rollback_to}, returning the bindings it undid: a probe's answer
    substitution, which {!reapply} commits later without re-deriving
    it. *)
val rollback_keep : t -> snapshot -> bindings

(** Keep the bindings; forget the snapshot. *)
val commit : t -> snapshot -> unit

(** {1 Bindings and resolution} *)

(** Representative of a variable after following links. *)
val root : t -> int -> int

(** The binding of a variable's representative, if any. *)
val probe : t -> int -> Ty.t option

(** Bind an unbound variable.  Callers must check with {!probe} first. *)
val bind : t -> int -> Ty.t -> unit

(** Union two unbound variables. *)
val link : t -> int -> int -> unit

(** Structurally replace every bound inference variable by its value.
    This and the other [resolve*] functions return their argument
    physically when nothing in it is bound (or linked), and otherwise
    rebuild only the spine above what changed. *)
val resolve : t -> Ty.t -> Ty.t

val resolve_arg : t -> Ty.arg -> Ty.arg
val resolve_trait_ref : t -> Ty.trait_ref -> Ty.trait_ref
val resolve_projection : t -> Ty.projection -> Ty.projection
val resolve_predicate : t -> Predicate.t -> Predicate.t

(** Instantiate a declaration's generics with fresh inference variables,
    as a substitution. *)
val instantiate_generics : t -> Decl.generics -> Subst.t

(** {1 Raw slot access (evaluation-cache replay)}

    The evaluation cache replays a memoized evaluation by re-allocating
    the variable range it consumed and writing back the captured slots,
    renumbered; everything is undo-logged, so enclosing snapshots roll
    replayed bindings back exactly like real ones. *)

(** Allocate [n] fresh variables; returns the first index. *)
val alloc_vars : t -> int -> int

(** The raw slot of variable [i] (no link-following). *)
val slot : t -> int -> binding

(** Write a slot.  The slot must currently be [Unbound]; writing
    [Unbound] is a no-op.  Undo-logged. *)
val set_slot : t -> int -> binding -> unit

(** Write back bindings returned by {!rollback_keep}, through
    {!set_slot}: every slot must be [Unbound] again, and the writes are
    undo-logged, so an enclosing snapshot still rolls them back. *)
val reapply : t -> bindings -> unit

(** Current undo-log position, for {!sets_since}. *)
val undo_mark : t -> int

(** Variables set (and not since rolled back) after [mark], oldest
    first. *)
val sets_since : t -> int -> int list

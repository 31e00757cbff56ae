(** Structural fingerprints of declarations, and the program differ that
    drives incremental re-solving (red-green revalidation).

    A fingerprint covers the {e whole} declaration value — including its
    span and (for impls) its [impl_id] — so two declarations with equal
    fingerprints are bit-identical OCaml values.  That strictness is what
    lets a surviving cache entry replay byte-identically after an edit:
    any cached proof-tree fragment that embeds the old declaration (via
    [Trace.Cand_impl] provenance) is guaranteed to embed exactly the value
    the new program would produce.  The cost is over-invalidation when an
    edit shifts the spans of later declarations; that is sound (extra
    eviction, never a stale survivor). *)

(** A dirty dependency key: the unit of invalidation.  Cache entries
    record which keys they consulted while solving (see
    {!Solver.Eval_cache}); the differ reports which keys an edit
    dirtied. *)
type dep =
  | Dep_type of Path.t  (** the [struct] declaration at this path *)
  | Dep_trait of Path.t  (** the [trait] declaration at this path *)
  | Dep_fn of Path.t  (** the [fn] declaration at this path *)
  | Dep_impls of Path.t
      (** the {e set} of impl blocks for the trait at this path — the
          clause-DB view: candidate enumeration depends on the whole set,
          so any impl added/removed/changed under a trait dirties it *)

val dep_equal : dep -> dep -> bool
val dep_to_string : dep -> string

val type_fp : Decl.tydecl -> string
val trait_fp : Decl.trdecl -> string
val fn_fp : Decl.fndecl -> string
val impl_fp : Decl.impl -> string

(** The classified result of diffing an old program against a new one. *)
type diff = {
  dirty : dep list;  (** deduplicated dirty keys, stable order *)
  changed_decls : int;  (** changed + added + removed declarations *)
}

val no_diff : diff

(** Classify an old→new program pair.  Named declarations (types,
    traits, fns) are matched by path; impls — which have no path — are
    compared as per-trait fingerprint multisets, so reordering impls of
    one trait dirties that trait's [Dep_impls] (candidate order is
    program order and is observable in proof trees). *)
val diff : old_program:Program.t -> new_program:Program.t -> diff

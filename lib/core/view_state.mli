(** The pure state machine behind the Argus interface (§3.2).

    The paper's four interface principles are interaction semantics over
    the proof tree; this module implements them front-end-agnostically.
    The terminal renderer ({!Render}), the HTML embedding ({!Html}), and
    the interactive CLI all drive this same state.

    - CollapseSeq: [expanded] tracks which nodes are unfolded.
    - ShortTys: types render shortened by default; per-node ellipsis
      expansion and the fully-qualified-paths toggle live here.
    - CtxtLinks: [hovered] selects the node whose definition paths appear
      in the minibuffer.
    - TreeData: [direction] chooses the bottom-up or top-down projection;
      bottom-up roots are ordered by [ranker]. *)

type direction = Bottom_up | Top_down

(** A view state.  The record is [private]: build one with {!create} and
    change it only through this module's operations, so the cached root
    order below can never go stale. *)
type t = private {
  tree : Proof_tree.t;
  direction : direction;
  expanded : Set.Make(Int).t;
  ty_expanded : Set.Make(Int).t;
  show_paths : bool;
  show_all_predicates : bool;  (** the §4 internal-predicate toggle *)
  hovered : Proof_tree.node_id option;
  ranker : Heuristics.ranker;
  others_threshold : int;
      (** bottom-up roots beyond this rank fold under "Other failures ..."
          (Fig. 9a) *)
  others_expanded : bool;
  ranked : Proof_tree.node list Lazy.t;
      (** The bottom-up root order, [ranker.rank tree], before the
          visibility filter.  It is per (tree, ranker): {!create} and
          {!set_ranker} set it, every other operation carries it over, and
          it is forced on the first bottom-up {!roots} call.  Forcing it
          is safe because argus runs on one domain: a [Lazy.t] must not
          be forced from two domains at once. *)
}

val create :
  ?direction:direction ->
  ?ranker:Heuristics.ranker ->
  ?others_threshold:int ->
  Proof_tree.t ->
  t

(** {1 CollapseSeq} *)

val is_expanded : t -> Proof_tree.node_id -> bool
val toggle_expand : t -> Proof_tree.node_id -> t
val expand : t -> Proof_tree.node_id -> t
val collapse : t -> Proof_tree.node_id -> t
val expand_all : t -> t
val collapse_all : t -> t

(** Unfold / fold the "Other failures ..." group of the bottom-up view. *)
val toggle_others : t -> t

(** {1 TreeData} *)

val set_direction : t -> direction -> t

(** Replace the ranker; the bottom-up order is recomputed (once, lazily)
    under the new one. *)
val set_ranker : t -> Heuristics.ranker -> t

(** {1 ShortTys} *)

val is_ty_expanded : t -> Proof_tree.node_id -> bool

(** Click an ellipsis: reveal the node's hidden generic arguments. *)
val toggle_ty_expand : t -> Proof_tree.node_id -> t

val toggle_paths : t -> t
val toggle_all_predicates : t -> t

(** The pretty-printer configuration a node renders under. *)
val pretty_config : t -> Proof_tree.node_id -> Trait_lang.Pretty.config

(** {1 CtxtLinks} *)

val hover : t -> Proof_tree.node_id -> t
val unhover : t -> t

(** Minibuffer content for the hovered node: fully-qualified definition
    paths (Fig. 7a). *)
val minibuffer : t -> string list

(** {1 Projections} *)

(** Should this node be shown at all?  Stateful normalization nodes and
    compiler-internal predicates are hidden unless toggled (§4). *)
val node_visible : t -> Proof_tree.node -> bool

(** Visible children in the current direction: tree children for
    top-down, the parent chain for bottom-up; hidden nodes are spliced
    through. *)
val visible_children : t -> Proof_tree.node -> Proof_tree.node list

(** The roots of the current view: the tree root for top-down, the
    ranked failing leaves for bottom-up (before the Other-failures
    fold).  Bottom-up filters the cached order with {!node_visible}; the
    ranker itself runs only on the first bottom-up call after {!create}
    or {!set_ranker}. *)
val roots : t -> Proof_tree.node list

(** Bottom-up roots split into (shown, folded behind "Other failures"). *)
val roots_split : t -> Proof_tree.node list * Proof_tree.node list

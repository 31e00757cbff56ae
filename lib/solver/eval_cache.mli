(** The global trait-solver evaluation cache (see the implementation
    header for the full design and cycle-safety argument).

    Two tiers, both keyed by a solver context (program stamp +
    elaborated param-env + config) and an interned predicate:

    - {b tree tier}: memoized proof-tree fragments for ground
      [Trait]/[Projection] goals, replayed bit-identically (journal IDs,
      inference variables, bindings);
    - {b result tier}: bare verdicts for canonicalized goals evaluated
      from an empty stack ({!Solve.evaluate}).

    One table per tier, with one LRU clock, as plain module state; a
    full tier (16 × 1024 entries) evicts its least-recently-used
    half. *)

open Trait_lang

(** {1 Global switches} *)

(** Disable ([--no-cache]) or re-enable both tiers; when disabled,
    lookups miss silently (without counting) and inserts are dropped. *)
val set_enabled : bool -> unit

(** Is the cache in use: the switch is on {e and} no
    journal is recording ({!Journal.enabled}).  A recording solve does
    no lookups, no inserts and opens no frames, so its event stream is
    the cache-off stream. *)
val enabled : unit -> bool

(** Empty both tiers (tests, and telemetry-isolation runs). *)
val clear : unit -> unit

type stats = { cs_tree : int; cs_result : int }

val stats : unit -> stats

(** {1 Keys} *)

(** Everything an evaluation's outcome depends on besides the goal
    itself.  Built once per solver in {!Solve.create}. *)
type ctx

val make_ctx : stamp:int -> depth_limit:int -> Predicate.t list -> ctx

(** The interned elaborated param-env the context was built from — the
    solver reuses it so env candidates share interned predicates. *)
val ctx_env : ctx -> Predicate.t list

type key

(** Key for a {e ground} goal (tree tier). *)
val tree_key : ctx -> Predicate.t -> key

(** Key for a canonicalized goal (result tier). *)
val result_key : ctx -> Canonical.canonical -> key

(** {1 Tree tier} *)

type tree_entry

val find_tree : key -> depth:int -> stack:Predicate.t list -> tree_entry option

(** Per-goal capture of what the evaluation is about to consume; open
    right before dispatching, pass to {!try_insert} after. *)
type frame

val open_frame : Infer_ctx.t -> key:key -> gid:int -> depth:int -> frame

(** Validate and store a finished evaluation; a no-op for subtrees whose
    behavior is stack- or limit-dependent, or that touched pre-existing
    inference variables. *)
val try_insert : Infer_ctx.t -> frame -> Trace.goal_node -> unit

(** Reconstruct the exact post-evaluation solver state (journal-ID
    range, fresh variables, bindings) and return the restamped
    subtree. *)
val replay :
  Infer_ctx.t -> gid:int -> depth:int -> prov:Trace.provenance -> tree_entry -> Trace.goal_node

(** {1 Result tier} *)

val find_result : key -> Res.t option
val insert_result : key -> Res.t -> unit

(** {1 Stamp eviction} *)

(** Drop every entry of both tiers keyed by program stamp [stamp] and
    return how many were dropped.  {!Session.edit} calls it on the
    previous program's stamp when it swaps in a program with a new one,
    so a long-lived session holds one version's entries, not every
    version's until the LRU cap pushes them out. *)
val evict_stamp : int -> int

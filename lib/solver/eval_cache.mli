(** The trait-solver evaluation cache (see the implementation header for
    the full design and cycle-safety argument).

    It memoizes proof-tree fragments for ground [Trait]/[Projection]
    goals, keyed by a solver scope (elaborated param-env and depth
    limit) and the predicate, and replays them bit-identically (journal
    IDs, inference variables, bindings).

    A cache is a value scoped to one run: the run creates it, its
    solvers share it, and nothing in it outlives the run.  Keys are
    hashed structurally and compared with [Predicate.equal]. *)

open Trait_lang

(** One run's table. *)
type t

val create : unit -> t

(** {1 Global switches} *)

(** Disable ([--no-cache]) or re-enable the cache; when disabled,
    lookups miss silently (without counting) and inserts are dropped. *)
val set_enabled : bool -> unit

(** Is the cache in use: the switch is on {e and} no
    journal is recording ({!Journal.enabled}).  A recording solve does
    no lookups, no inserts and opens no frames, so its event stream is
    the cache-off stream. *)
val enabled : unit -> bool

(** A no-op: no cache outlives its run, so there is nothing global to
    empty.  Kept for callers that reset every solver-side table between
    runs. *)
val clear : unit -> unit

(** Entries held by one run's table. *)
val length : t -> int

(** {1 Keys} *)

(** A cache together with everything an evaluation's outcome depends on
    besides the goal itself.  Built once per solver in {!Solve.create}. *)
type ctx

val make_ctx : t -> depth_limit:int -> Predicate.t list -> ctx

type key

(** Key for a {e ground} goal. *)
val tree_key : ctx -> Predicate.t -> key

(** {1 Lookup, insertion, replay} *)

type tree_entry

val find_tree : ctx -> key -> depth:int -> stack:Predicate.t list -> tree_entry option

(** Per-goal capture of what the evaluation is about to consume; open
    right before dispatching, pass to {!try_insert} after. *)
type frame

val open_frame : Infer_ctx.t -> key:key -> gid:int -> depth:int -> frame

(** Validate and store a finished evaluation; a no-op for subtrees whose
    behavior is stack- or limit-dependent, or that touched pre-existing
    inference variables. *)
val try_insert : ctx -> Infer_ctx.t -> frame -> Trace.goal_node -> unit

(** Reconstruct the exact post-evaluation solver state (journal-ID
    range, fresh variables, bindings) and return the restamped
    subtree. *)
val replay :
  Infer_ctx.t -> gid:int -> depth:int -> prov:Journal.prov -> tree_entry -> Trace.goal_node

(** The solver search journal: a typed, streaming event log of the
    trait solver's entire search — goal enter/exit, candidate assembly
    and evaluation, unification attempts with structured failures,
    snapshot traffic, normalization, cycles, overflow, and ambiguity.

    Disabled-is-free: with no sink installed every emission point is a
    single load + branch.  Node IDs are assigned monotonically and
    stored in the solver's trace nodes, so rendered proof-tree nodes
    link back to their originating event spans.  This library sits below
    the solver and declares the search vocabulary both share — {!Res},
    provenance, flags and unification failures — so events carry the
    solver's own values.  The JSONL wire format (schema
    [argus.journal/v2]) is {!Argus_json.Journal_codec}. *)

open Trait_lang

(** {1 The search vocabulary (shared with the solver's trace trees)} *)

module Res = Res

(** Where a subgoal came from — the CtxtLinks auxiliary data. *)
type prov =
  | Root of { origin : string; span : Span.t }
      (** a top-level obligation from the user's code *)
  | Impl_where of { impl_id : int; clause_idx : int }
      (** the [clause_idx]-th where-clause of impl [impl_id] *)
  | Param_env of int  (** the n-th in-scope where-clause *)
  | Supertrait of Path.t
  | Builtin_req of string  (** requirement of a built-in impl *)
  | Normalization  (** generated while normalizing a projection *)

val equal_prov : prov -> prov -> bool

type flag =
  | Overflow  (** E0275: cyclic requirement *)
  | Depth_limit  (** recursion limit reached *)
  | Stateful  (** a [NormalizesTo] node: value captured after its subtree *)
  | Speculative  (** probing predicate from method resolution *)
  | Ambiguous_selection  (** several candidates succeeded *)

(** A candidate source in wire form: an impl is its id and rendered
    header, which a journal decoded without its program can still show. *)
type source =
  | Impl of { impl_id : int; header : string }
  | Param_env_clause of Predicate.t
  | Builtin of string

type unify_failure =
  | Head_mismatch of Ty.t * Ty.t  (** different rigid constructors *)
  | Arity of Ty.t * Ty.t
  | Region_mismatch of Region.t * Region.t
  | Occurs of int * Ty.t  (** [?i] occurs in the type it would bind to *)
  | Projection_ambiguous of Ty.projection * Ty.t
      (** a projection met a non-projection; needs normalization *)

val equal_failure : unify_failure -> unify_failure -> bool

(** {1 Events} *)

type event =
  | Goal_enter of {
      id : int;
      parent : int option;
      pred : Predicate.t;
      depth : int;
      prov : prov;
    }
  | Goal_exit of { id : int; pred : Predicate.t; result : Res.t; flags : flag list }
  | Goal_flag of { id : int; flag : flag }
  | Cand_enter of { id : int; goal : int; source : source }
  | Cand_exit of { id : int; result : Res.t; failure : unify_failure option }
  | Cand_assembled of { goal : int; param_env : int; impls : int; builtin : int }
  | Cand_commit of { goal : int; cand : int }
      (** the uniquely successful candidate is committed by writing back
          the bindings its probe made; it is not evaluated again *)
  | Unify of {
      node : int option;
      left : Ty.t;
      right : Ty.t;
      failure : unify_failure option;
    }
  | Snapshot_open of { snap : int; node : int option }
  | Snapshot_commit of { snap : int }
  | Snapshot_rollback of { snap : int }
  | Norm_resolved of { id : int; resolved : Ty.t option }
  | Cycle_detected of { id : int; pred : Predicate.t }
  | Overflow_hit of { id : int; depth_limited : bool }
  | Ambiguity of { id : int; succeeded : int }
  | Probe_begin of { origin : string; alternatives : int }
  | Probe_end of { committed : int option }
  | Overlap_detected of { trait_ : Path.t; impl_a : int; impl_b : int; witness : Ty.t }

type entry = { seq : int; ts_ns : int; ev : event }

(** {1 The sink} *)

(** Is a sink installed?  The hot-path guard. *)
val enabled : unit -> bool

(** Install or remove the streaming sink.  Installing resets the
    sequence counter and the open-node stack. *)
val set_sink : (entry -> unit) option -> unit

(** Emit an event (stamped with sequence number and monotonic-ns
    timestamp).  A no-op when no sink is installed. *)
val emit : event -> unit

(** Allocate the next stable node ID.  Unconditional, so trace nodes
    carry IDs even without a sink. *)
val fresh_id : unit -> int

(** The ID the next {!fresh_id} call would return, without allocating. *)
val peek_id : unit -> int

(** Advance the ID counter by [n] without emitting anything — the
    evaluation cache reserves the ID range a replayed memoized subtree
    occupies, keeping later IDs identical to a cache-off run. *)
val bump_ids : int -> unit

(** The innermost open goal/candidate node, per the emitted structural
    events. *)
val current_node : unit -> int option

(** Remove the sink and restart node IDs from 0.

    The journal state (sink, sequence and ID counters, open-node stack)
    is plain module state: one stream per process.  Resetting before a
    solve makes its stream identical to a fresh process's. *)
val reset : unit -> unit

(** Restart node IDs from 0 {b without} touching the installed sink —
    what a long-lived session server needs: each {!Solver.Session}
    resolve restarts the ID stream (so replays are byte-identical to a
    one-shot run) while the server's memory sink keeps recording. *)
val reset_ids : unit -> unit

(** Record events into memory while running [f]; restores the previous
    sink afterwards. *)
val with_memory_sink : (unit -> 'a) -> 'a * entry list

(** {1 Pretty-printing} *)

val flag_to_string : flag -> string
val prov_to_string : prov -> string
val source_to_string : source -> string
val failure_to_string : ?cfg:Pretty.config -> unify_failure -> string

(** Stable kind tag, as used by the JSONL codec. *)
val event_kind : event -> string

(** {1 Equality} *)

val equal_source : source -> source -> bool
val equal_event : event -> event -> bool
val equal_entry : entry -> entry -> bool

(** {1 Replay}

    Rebuild the search forest from an event stream.  The replay
    validator checks the result is structurally equal to the solver's
    directly-constructed trace trees. *)

type rgoal = {
  rg_id : int;
  mutable rg_pred : Predicate.t;
  rg_depth : int;
  rg_prov : prov;
  mutable rg_result : Res.t;
  mutable rg_flags : flag list;
  mutable rg_cands : rcand list;
  mutable rg_unify : entry list;
}

and rcand = {
  rc_id : int;
  rc_source : source;
  mutable rc_result : Res.t;
  mutable rc_failure : unify_failure option;
  mutable rc_subgoals : rgoal list;
  mutable rc_unify : entry list;
}

type replay_tree = {
  rt_roots : rgoal list;
  rt_goals : (int, rgoal) Hashtbl.t;
  rt_cands : (int, rcand) Hashtbl.t;
  rt_parent : (int, int) Hashtbl.t;
}

(** Rebuild the forest; [Error] describes the first impossible nesting
    or truncation encountered. *)
val replay : entry list -> (replay_tree, string) result

(** Structural equality (IDs, predicates, results, flags, candidate
    structure); attached unify events are ignored. *)
val equal_goal : rgoal -> rgoal -> bool

val equal_cand : rcand -> rcand -> bool
val fold_goals : ('a -> rgoal -> 'a) -> 'a -> rgoal -> 'a

(** Failed goals with no failing sub-structure, mirroring
    [Solver.Trace.failed_leaves]. *)
val failed_leaves : rgoal -> rgoal list

(** The unify event whose failure matches the candidate's recorded
    rejection, if the candidate was rejected. *)
val rejecting_unify : rcand -> entry option

(** The solver's side of the search journal: the emission helpers the
    solver calls, the wire form of a candidate source, and the
    replay-validator bridge from direct trace trees.

    Results, provenance, flags and unification failures are
    {!Journal}'s own types, so events carry the trace's values as they
    are.  Every helper is guarded by [Journal.enabled ()], keeping the
    disabled path at one load + branch per call site and
    allocation-free. *)

open Trait_lang

let source_of : Trace.cand_source -> Journal.source = function
  | Trace.Cand_impl impl ->
      Journal.Impl
        {
          impl_id = impl.Decl.impl_id;
          header = Pretty.impl_header ~cfg:Pretty.expanded impl;
        }
  | Trace.Cand_param_env p -> Journal.Param_env_clause p
  | Trace.Cand_builtin b -> Journal.Builtin b

(* ------------------------------------------------------------------ *)
(* Emission helpers.  Guarded so that event construction only happens
   with a sink installed. *)

let goal_enter ~id ~depth prov (pred : Predicate.t) =
  if Journal.enabled () then
    Journal.emit (Journal.Goal_enter { id; parent = Journal.current_node (); pred; depth; prov })

let goal_exit (g : Trace.goal_node) =
  if Journal.enabled () then
    Journal.emit
      (Journal.Goal_exit { id = g.gid; pred = g.pred; result = g.result; flags = g.flags })

let goal_flag ~id flag =
  if Journal.enabled () then Journal.emit (Journal.Goal_flag { id; flag })

let cand_enter ~id ~goal (src : Trace.cand_source) =
  if Journal.enabled () then
    Journal.emit (Journal.Cand_enter { id; goal; source = source_of src })

let cand_exit (c : Trace.cand_node) =
  if Journal.enabled () then
    Journal.emit (Journal.Cand_exit { id = c.cid; result = c.cand_result; failure = c.failure })

let cand_assembled ~goal ~param_env ~impls ~builtin =
  if Journal.enabled () then
    Journal.emit (Journal.Cand_assembled { goal; param_env; impls; builtin })

let cand_commit ~goal ~cand =
  if Journal.enabled () then Journal.emit (Journal.Cand_commit { goal; cand })

let cycle ~id (pred : Predicate.t) =
  if Journal.enabled () then Journal.emit (Journal.Cycle_detected { id; pred })

let overflow ~id ~depth_limited =
  if Journal.enabled () then Journal.emit (Journal.Overflow_hit { id; depth_limited })

let ambiguity ~id ~succeeded =
  if Journal.enabled () then Journal.emit (Journal.Ambiguity { id; succeeded })

let norm_resolved ~id (resolved : Ty.t option) =
  if Journal.enabled () then Journal.emit (Journal.Norm_resolved { id; resolved })

let probe_begin ~origin ~alternatives =
  if Journal.enabled () then Journal.emit (Journal.Probe_begin { origin; alternatives })

let probe_end ~committed =
  if Journal.enabled () then Journal.emit (Journal.Probe_end { committed })

(* ------------------------------------------------------------------ *)
(* The replay-validator bridge: a direct trace tree, converted to the
   journal's replay representation for structural comparison. *)

let rec rtree_of_trace (g : Trace.goal_node) : Journal.rgoal =
  {
    Journal.rg_id = g.gid;
    rg_pred = g.pred;
    rg_depth = g.depth;
    rg_prov = g.provenance;
    rg_result = g.result;
    rg_flags = g.flags;
    rg_cands = List.map rcand_of_trace g.candidates;
    rg_unify = [];
  }

and rcand_of_trace (c : Trace.cand_node) : Journal.rcand =
  {
    Journal.rc_id = c.cid;
    rc_source = source_of c.source;
    rc_result = c.cand_result;
    rc_failure = c.failure;
    rc_subgoals = List.map rtree_of_trace c.subgoals;
    rc_unify = [];
  }

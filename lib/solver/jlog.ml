(** Bridge between the solver's types and the search journal.

    {!Journal} sits below the solver, so its payload types mirror
    {!Trace} / {!Unify} structurally; this module owns the conversions
    and the emission helpers the solver calls.  Every helper is guarded
    by [Journal.enabled ()], keeping the disabled path at one load +
    branch per call site and allocation-free. *)

open Trait_lang

let res_of : Res.t -> Journal.res = function
  | Res.Yes -> Journal.Yes
  | Res.Maybe -> Journal.Maybe
  | Res.No -> Journal.No

let flag_of : Trace.flag -> Journal.flag = function
  | Trace.Overflow -> Journal.Overflow
  | Trace.Depth_limit -> Journal.Depth_limit
  | Trace.Stateful -> Journal.Stateful
  | Trace.Speculative -> Journal.Speculative
  | Trace.Ambiguous_selection -> Journal.Ambiguous_selection

let prov_of : Trace.provenance -> Journal.prov = function
  | Trace.Root { origin; span } -> Journal.Root { origin; span }
  | Trace.Impl_where { impl_id; clause_idx } -> Journal.Impl_where { impl_id; clause_idx }
  | Trace.Param_env i -> Journal.Param_env i
  | Trace.Supertrait p -> Journal.Supertrait p
  | Trace.Builtin_req s -> Journal.Builtin_req s
  | Trace.Normalization -> Journal.Normalization

let source_of : Trace.cand_source -> Journal.source = function
  | Trace.Cand_impl impl ->
      Journal.Impl
        {
          impl_id = impl.Decl.impl_id;
          header = Pretty.impl_header ~cfg:Pretty.expanded impl;
        }
  | Trace.Cand_param_env p -> Journal.Param_env_clause p
  | Trace.Cand_builtin b -> Journal.Builtin b

let failure_of : Unify.failure -> Journal.unify_failure = Unify.to_journal

(* ------------------------------------------------------------------ *)
(* Emission helpers.  Guarded so that conversion work only happens with
   a sink installed. *)

let goal_enter ~id ~depth (prov : Trace.provenance) (pred : Predicate.t) =
  if Journal.enabled () then
    Journal.emit
      (Journal.Goal_enter
         { id; parent = Journal.current_node (); pred; depth; prov = prov_of prov })

let goal_exit (g : Trace.goal_node) =
  if Journal.enabled () then
    Journal.emit
      (Journal.Goal_exit
         {
           id = g.gid;
           pred = g.pred;
           result = res_of g.result;
           flags = List.map flag_of g.flags;
         })

let goal_flag ~id (f : Trace.flag) =
  if Journal.enabled () then Journal.emit (Journal.Goal_flag { id; flag = flag_of f })

let cand_enter ~id ~goal (src : Trace.cand_source) =
  if Journal.enabled () then
    Journal.emit (Journal.Cand_enter { id; goal; source = source_of src })

let cand_exit (c : Trace.cand_node) =
  if Journal.enabled () then
    Journal.emit
      (Journal.Cand_exit
         {
           id = c.cid;
           result = res_of c.cand_result;
           failure = Option.map failure_of c.failure;
         })

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

(** A unification failure constructed by the solver itself (head/arity
    checks and missing associated-type bindings short-circuit before
    reaching {!Unify.unify}); journaled here so every rejected candidate
    still has its rejecting unification event. *)
let unify_failed icx (left : Ty.t) (right : Ty.t) (f : Unify.failure) =
  if Journal.enabled () then
    Journal.emit
      (Journal.Unify
         {
           node = Journal.current_node ();
           left = Infer_ctx.resolve icx left;
           right = Infer_ctx.resolve icx right;
           failure = Some (failure_of f);
         })

(* ------------------------------------------------------------------ *)
(* The replay-validator bridge: a direct trace tree, converted to the
   journal's replay representation for structural comparison. *)

let rec rtree_of_trace (g : Trace.goal_node) : Journal.rgoal =
  {
    Journal.rg_id = g.gid;
    rg_pred = g.pred;
    rg_depth = g.depth;
    rg_prov = prov_of g.provenance;
    rg_result = res_of g.result;
    rg_flags = List.map flag_of g.flags;
    rg_cands = List.map rcand_of_trace g.candidates;
    rg_unify = [];
  }

and rcand_of_trace (c : Trace.cand_node) : Journal.rcand =
  {
    Journal.rc_id = c.cid;
    rc_source = source_of c.source;
    rc_result = res_of c.cand_result;
    rc_failure = Option.map failure_of c.failure;
    rc_subgoals = List.map rtree_of_trace c.subgoals;
    rc_unify = [];
  }

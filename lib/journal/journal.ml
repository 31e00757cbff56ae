(** The solver search journal: a typed, streaming event log of the
    trait solver's entire search.

    Where {!Telemetry} records how {e much} work the solver did, the
    journal records {e what} it did: every goal entered and exited,
    every candidate assembled and tried, every unification attempt with
    its structured failure, every snapshot opened, committed, or rolled
    back — the execution trace of the logic program the solver is
    running.  Each goal and candidate carries a monotonically-assigned
    stable node ID, so a rendered proof-tree node links back to the
    exact span of events that produced it.

    The sink follows the same disabled-is-free discipline as
    {!Telemetry}: with no sink installed, every emission point is a
    single load + branch and allocates nothing, so the instrumentation
    stays compiled into the hot solver paths permanently.

    The search vocabulary is declared here, once: {!Res}, provenance,
    flags and unification failures are the very values the solver
    builds its trace trees from (the solver depends on this library and
    names these types), so an event carries them as they are.  Only the
    candidate source has a journal form of its own: an impl is recorded
    as its id and rendered header, which a journal read back from disk
    can show without the program.  JSONL serialization (schema
    [argus.journal/v2]) lives in {!Argus_json.Journal_codec}. *)

open Trait_lang

module Res = Res

(* ------------------------------------------------------------------ *)
(* The search payloads, shared with the solver's trace trees. *)

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

let equal_prov a b =
  match (a, b) with
  | Root a, Root b -> String.equal a.origin b.origin && Span.equal a.span b.span
  | Impl_where a, Impl_where b ->
      a.impl_id = b.impl_id && a.clause_idx = b.clause_idx
  | Param_env a, Param_env b -> a = b
  | Supertrait a, Supertrait b -> Path.equal a b
  | Builtin_req a, Builtin_req b -> String.equal a b
  | Normalization, Normalization -> true
  | _ -> false

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

let equal_failure a b =
  match (a, b) with
  | Head_mismatch (a1, a2), Head_mismatch (b1, b2)
  | Arity (a1, a2), Arity (b1, b2) ->
      Ty.equal a1 b1 && Ty.equal a2 b2
  | Region_mismatch (a1, a2), Region_mismatch (b1, b2) ->
      Region.equal a1 b1 && Region.equal a2 b2
  | Occurs (i, t), Occurs (j, u) -> i = j && Ty.equal t u
  | Projection_ambiguous (p, t), Projection_ambiguous (q, u) ->
      Ty.equal (Ty.Proj p) (Ty.Proj q) && Ty.equal t u
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Events *)

type event =
  | Goal_enter of {
      id : int;
      parent : int option;  (** enclosing candidate node, if any *)
      pred : Predicate.t;
      depth : int;
      prov : prov;
    }
  | Goal_exit of {
      id : int;
      pred : Predicate.t;
          (** authoritative: a [NormalizesTo] goal's predicate is
              rewritten between enter and exit (§4 statefulness) *)
      result : Res.t;
      flags : flag list;
    }
  | Goal_flag of { id : int; flag : flag }
      (** post-hoc flag, e.g. [Speculative] stamped by probing after
          the goal already exited *)
  | Cand_enter of { id : int; goal : int; source : source }
  | Cand_exit of { id : int; result : Res.t; failure : unify_failure option }
  | Cand_assembled of { goal : int; param_env : int; impls : int; builtin : int }
  | Cand_commit of { goal : int; cand : int }
      (** the uniquely successful candidate is committed: the bindings
          its probe made are written back, so no event follows *)
  | Unify of {
      node : int option;  (** innermost open goal/candidate *)
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

(* ------------------------------------------------------------------ *)
(* The sink *)

(* The whole journal state: one stream, with its sequence numbers, node
   IDs and open-node stack, as plain module state. *)
type state = {
  mutable sink : (entry -> unit) option;
  mutable enabled : bool;
  mutable seq_counter : int;
  mutable id_counter : int;
  mutable open_nodes : int list;
      (** innermost open goal/candidate node first, maintained by [emit]
          from the structural enter/exit events; used to attach
          unification and snapshot events to the node whose evaluation
          caused them *)
}

let st = { sink = None; enabled = false; seq_counter = 0; id_counter = 0; open_nodes = [] }

let enabled () = st.enabled

(* IDs are assigned unconditionally (a plain increment) so that trace
   nodes carry stable IDs even when no sink is installed — the IDs only
   become *addressable* when a journal was recorded. *)
let fresh_id () =
  let i = st.id_counter in
  st.id_counter <- i + 1;
  i

(* The evaluation cache replays memoized subtrees by offsetting their
   stored ids; these two keep the counter consistent with the ids a
   replayed subtree occupies. *)
let peek_id () = st.id_counter

let bump_ids n =
  if n > 0 then st.id_counter <- st.id_counter + n

let current_node () =
  match st.open_nodes with [] -> None | n :: _ -> Some n

let emit ev =
  match st.sink with
  | None -> ()
  | Some f ->
      (match ev with
      | Goal_enter { id; _ } | Cand_enter { id; _ } -> st.open_nodes <- id :: st.open_nodes
      | Goal_exit _ | Cand_exit _ -> (
          match st.open_nodes with [] -> () | _ :: rest -> st.open_nodes <- rest)
      | _ -> ());
      let seq = st.seq_counter in
      st.seq_counter <- seq + 1;
      f { seq; ts_ns = Telemetry.now_ns (); ev }

let set_sink s =
  st.sink <- s;
  st.enabled <- (match s with Some _ -> true | None -> false);
  st.seq_counter <- 0;
  st.open_nodes <- []

let reset () =
  set_sink None;
  st.id_counter <- 0

let reset_ids () = st.id_counter <- 0

(** Record events into memory while running [f]; the previously
    installed sink (if any) is saved and restored. *)
let with_memory_sink (f : unit -> 'a) : 'a * entry list =
  let saved_sink = st.sink
  and saved_enabled = st.enabled
  and saved_seq = st.seq_counter
  and saved_open = st.open_nodes in
  let buf = ref [] in
  set_sink (Some (fun e -> buf := e :: !buf));
  let restore () =
    st.sink <- saved_sink;
    st.enabled <- saved_enabled;
    st.seq_counter <- saved_seq;
    st.open_nodes <- saved_open
  in
  let r = Fun.protect ~finally:restore f in
  (r, List.rev !buf)

(* ------------------------------------------------------------------ *)
(* Pretty-printing *)

let flag_to_string = function
  | Overflow -> "overflow"
  | Depth_limit -> "depth-limit"
  | Stateful -> "stateful"
  | Speculative -> "speculative"
  | Ambiguous_selection -> "ambiguous-selection"

let prov_to_string = function
  | Root { origin; _ } -> Printf.sprintf "root (%s)" origin
  | Impl_where { impl_id; clause_idx } ->
      Printf.sprintf "where-clause %d of impl #%d" clause_idx impl_id
  | Param_env i -> Printf.sprintf "in-scope where-clause %d" i
  | Supertrait p -> Printf.sprintf "supertrait %s" (Path.to_string p)
  | Builtin_req b -> Printf.sprintf "built-in requirement (%s)" b
  | Normalization -> "normalization"

let source_to_string = function
  | Impl { impl_id; header } -> Printf.sprintf "impl #%d: %s" impl_id header
  | Param_env_clause p -> Printf.sprintf "where-clause `%s`" (Pretty.predicate p)
  | Builtin b -> Printf.sprintf "builtin:%s" b

let failure_to_string ?(cfg = Pretty.default) = function
  | Head_mismatch (a, b) ->
      Printf.sprintf "expected `%s`, found `%s`" (Pretty.ty ~cfg a) (Pretty.ty ~cfg b)
  | Arity (a, b) ->
      Printf.sprintf "`%s` and `%s` differ in arity" (Pretty.ty ~cfg a) (Pretty.ty ~cfg b)
  | Region_mismatch (a, b) ->
      Printf.sprintf "lifetime mismatch: `%s` vs `%s`" (Region.to_string a)
        (Region.to_string b)
  | Occurs (i, t) ->
      Printf.sprintf "cyclic type: ?%d occurs in `%s`" i (Pretty.ty ~cfg t)
  | Projection_ambiguous (p, t) ->
      Printf.sprintf "cannot relate `%s` to `%s` without normalizing"
        (Pretty.projection ~cfg p) (Pretty.ty ~cfg t)

let event_kind = function
  | Goal_enter _ -> "goal_enter"
  | Goal_exit _ -> "goal_exit"
  | Goal_flag _ -> "goal_flag"
  | Cand_enter _ -> "cand_enter"
  | Cand_exit _ -> "cand_exit"
  | Cand_assembled _ -> "cand_assembled"
  | Cand_commit _ -> "cand_commit"
  | Unify _ -> "unify"
  | Snapshot_open _ -> "snapshot_open"
  | Snapshot_commit _ -> "snapshot_commit"
  | Snapshot_rollback _ -> "snapshot_rollback"
  | Norm_resolved _ -> "norm_resolved"
  | Cycle_detected _ -> "cycle_detected"
  | Overflow_hit _ -> "overflow_hit"
  | Ambiguity _ -> "ambiguity"
  | Probe_begin _ -> "probe_begin"
  | Probe_end _ -> "probe_end"
  | Overlap_detected _ -> "overlap_detected"

(* ------------------------------------------------------------------ *)
(* Equality (for round-trip tests and the replay validator) *)

let equal_source a b =
  match (a, b) with
  | Impl a, Impl b -> a.impl_id = b.impl_id && String.equal a.header b.header
  | Param_env_clause a, Param_env_clause b -> Predicate.equal a b
  | Builtin a, Builtin b -> String.equal a b
  | _ -> false

let equal_event (a : event) (b : event) =
  match (a, b) with
  | Goal_enter a, Goal_enter b ->
      a.id = b.id && a.parent = b.parent && Predicate.equal a.pred b.pred
      && a.depth = b.depth && equal_prov a.prov b.prov
  | Goal_exit a, Goal_exit b ->
      a.id = b.id && Predicate.equal a.pred b.pred && Res.equal a.result b.result
      && a.flags = b.flags
  | Goal_flag a, Goal_flag b -> a.id = b.id && a.flag = b.flag
  | Cand_enter a, Cand_enter b ->
      a.id = b.id && a.goal = b.goal && equal_source a.source b.source
  | Cand_exit a, Cand_exit b ->
      a.id = b.id && Res.equal a.result b.result
      && Option.equal equal_failure a.failure b.failure
  | Cand_assembled a, Cand_assembled b ->
      a.goal = b.goal && a.param_env = b.param_env && a.impls = b.impls
      && a.builtin = b.builtin
  | Cand_commit a, Cand_commit b -> a.goal = b.goal && a.cand = b.cand
  | Unify a, Unify b ->
      a.node = b.node && Ty.equal a.left b.left && Ty.equal a.right b.right
      && Option.equal equal_failure a.failure b.failure
  | Snapshot_open a, Snapshot_open b -> a.snap = b.snap && a.node = b.node
  | Snapshot_commit a, Snapshot_commit b -> a.snap = b.snap
  | Snapshot_rollback a, Snapshot_rollback b -> a.snap = b.snap
  | Norm_resolved a, Norm_resolved b ->
      a.id = b.id && Option.equal Ty.equal a.resolved b.resolved
  | Cycle_detected a, Cycle_detected b -> a.id = b.id && Predicate.equal a.pred b.pred
  | Overflow_hit a, Overflow_hit b ->
      a.id = b.id && a.depth_limited = b.depth_limited
  | Ambiguity a, Ambiguity b -> a.id = b.id && a.succeeded = b.succeeded
  | Probe_begin a, Probe_begin b ->
      String.equal a.origin b.origin && a.alternatives = b.alternatives
  | Probe_end a, Probe_end b -> a.committed = b.committed
  | Overlap_detected a, Overlap_detected b ->
      Path.equal a.trait_ b.trait_ && a.impl_a = b.impl_a && a.impl_b = b.impl_b
      && Ty.equal a.witness b.witness
  | _ -> false

let equal_entry (a : entry) (b : entry) =
  a.seq = b.seq && a.ts_ns = b.ts_ns && equal_event a.ev b.ev

(* ------------------------------------------------------------------ *)
(* Replay: rebuilding the search forest from the event stream.

   The replay validator's contract: the forest rebuilt here from the
   event stream is structurally equal to the trace trees the solver
   built directly ([Solver.Jlog.rtree_of_trace] converts the latter for
   comparison).  Self-checking observability. *)

type rgoal = {
  rg_id : int;
  mutable rg_pred : Predicate.t;
  rg_depth : int;
  rg_prov : prov;
  mutable rg_result : Res.t;
  mutable rg_flags : flag list;
  mutable rg_cands : rcand list;
  mutable rg_unify : entry list;  (** unify events while this goal was innermost *)
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
  rt_roots : rgoal list;  (** root goals in evaluation order *)
  rt_goals : (int, rgoal) Hashtbl.t;
  rt_cands : (int, rcand) Hashtbl.t;
  rt_parent : (int, int) Hashtbl.t;  (** node id -> enclosing node id *)
}

type frame = F_goal of rgoal | F_cand of rcand

let replay (entries : entry list) : (replay_tree, string) result =
  let goals = Hashtbl.create 64 in
  let cands = Hashtbl.create 64 in
  let parent = Hashtbl.create 64 in
  let roots = ref [] in
  let stack = ref [] in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let exception Replay_error of string in
  let fail fmt = Printf.ksprintf (fun m -> raise (Replay_error m)) fmt in
  let step (e : entry) =
    match e.ev with
    | Goal_enter { id; parent = _; pred; depth; prov } ->
        let g =
          {
            rg_id = id;
            rg_pred = pred;
            rg_depth = depth;
            rg_prov = prov;
            rg_result = Res.Maybe;
            rg_flags = [];
            rg_cands = [];
            rg_unify = [];
          }
        in
        Hashtbl.replace goals id g;
        (match !stack with
        | [] -> roots := g :: !roots
        | F_cand c :: _ ->
            c.rc_subgoals <- g :: c.rc_subgoals;
            Hashtbl.replace parent id c.rc_id
        | F_goal pg :: _ ->
            fail "event %d: goal %d entered directly under goal %d" e.seq id pg.rg_id);
        stack := F_goal g :: !stack
    | Goal_exit { id; pred; result; flags } -> (
        match !stack with
        | F_goal g :: rest when g.rg_id = id ->
            g.rg_pred <- pred;
            g.rg_result <- result;
            g.rg_flags <- flags;
            g.rg_cands <- List.rev g.rg_cands;
            g.rg_unify <- List.rev g.rg_unify;
            stack := rest
        | _ -> fail "event %d: goal_exit %d does not match the open node" e.seq id)
    | Goal_flag { id; flag } -> (
        match Hashtbl.find_opt goals id with
        | Some g -> g.rg_flags <- flag :: g.rg_flags
        | None -> fail "event %d: goal_flag for unknown goal %d" e.seq id)
    | Cand_enter { id; goal; source } -> (
        match !stack with
        | F_goal g :: _ when g.rg_id = goal ->
            let c =
              {
                rc_id = id;
                rc_source = source;
                rc_result = Res.Maybe;
                rc_failure = None;
                rc_subgoals = [];
                rc_unify = [];
              }
            in
            Hashtbl.replace cands id c;
            Hashtbl.replace parent id goal;
            g.rg_cands <- c :: g.rg_cands;
            stack := F_cand c :: !stack
        | _ ->
            fail "event %d: cand_enter %d under goal %d, which is not open" e.seq id goal)
    | Cand_exit { id; result; failure } -> (
        match !stack with
        | F_cand c :: rest when c.rc_id = id ->
            c.rc_result <- result;
            c.rc_failure <- failure;
            c.rc_subgoals <- List.rev c.rc_subgoals;
            c.rc_unify <- List.rev c.rc_unify;
            stack := rest
        | _ -> fail "event %d: cand_exit %d does not match the open node" e.seq id)
    | Unify _ -> (
        match !stack with
        | F_goal g :: _ -> g.rg_unify <- e :: g.rg_unify
        | F_cand c :: _ -> c.rc_unify <- e :: c.rc_unify
        | [] -> ())
    | Cand_assembled _ | Cand_commit _ | Snapshot_open _ | Snapshot_commit _
    | Snapshot_rollback _ | Norm_resolved _ | Cycle_detected _ | Overflow_hit _
    | Ambiguity _ | Probe_begin _ | Probe_end _ | Overlap_detected _ ->
        ()
  in
  try
    List.iter step entries;
    match !stack with
    | [] ->
        Ok
          {
            rt_roots = List.rev !roots;
            rt_goals = goals;
            rt_cands = cands;
            rt_parent = parent;
          }
    | F_goal g :: _ -> err "truncated stream: goal %d never exited" g.rg_id
    | F_cand c :: _ -> err "truncated stream: candidate %d never exited" c.rc_id
  with Replay_error m -> Error m

(** Structural equality of replayed trees — the replay validator's
    comparison.  Attached unify events are bookkeeping, not structure,
    and are ignored. *)
let rec equal_goal (a : rgoal) (b : rgoal) =
  a.rg_id = b.rg_id
  && Predicate.equal a.rg_pred b.rg_pred
  && a.rg_depth = b.rg_depth
  && equal_prov a.rg_prov b.rg_prov
  && Res.equal a.rg_result b.rg_result
  && a.rg_flags = b.rg_flags
  && List.equal equal_cand a.rg_cands b.rg_cands

and equal_cand (a : rcand) (b : rcand) =
  a.rc_id = b.rc_id
  && equal_source a.rc_source b.rc_source
  && Res.equal a.rc_result b.rc_result
  && Option.equal equal_failure a.rc_failure b.rc_failure
  && List.equal equal_goal a.rc_subgoals b.rc_subgoals

(** Pre-order fold over a replayed goal tree. *)
let rec fold_goals f acc (g : rgoal) =
  let acc = f acc g in
  List.fold_left (fun acc c -> List.fold_left (fold_goals f) acc c.rc_subgoals) acc g.rg_cands

(** All failing leaves, mirroring [Solver.Trace.failed_leaves]: failed
    goals with no failing sub-structure. *)
let failed_leaves (g : rgoal) =
  fold_goals
    (fun acc node ->
      match node.rg_result with
      | Res.No | Res.Maybe ->
          let has_failing_child =
            List.exists
              (fun c ->
                c.rc_result <> Res.Yes
                && List.exists (fun s -> s.rg_result <> Res.Yes) c.rc_subgoals)
              node.rg_cands
          in
          if has_failing_child then acc else node :: acc
      | Res.Yes -> acc)
    [] g
  |> List.rev

(** The unification event that rejected this candidate: the first unify
    event attached to it whose failure matches the candidate's recorded
    failure. *)
let rejecting_unify (c : rcand) : entry option =
  match c.rc_failure with
  | None -> None
  | Some f ->
      List.find_opt
        (fun e ->
          match e.ev with
          | Unify { failure = Some g; _ } -> equal_failure f g
          | _ -> false)
        c.rc_unify

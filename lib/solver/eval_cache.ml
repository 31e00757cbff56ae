(** The trait-solver evaluation cache.

    Trait solving re-derives the same facts constantly: coherence checks
    every impl's bounds, the obligation engine re-runs [Maybe] goals to a
    fixpoint, method-resolution probes re-ask receiver predicates, and
    deep where-clause trees share subgoals.  rustc memoizes evaluations
    per canonical query; this module does the same for L_TRAIT.  It
    memoizes whole proof-tree fragments for {e ground}
    [Trait]/[Projection] goals, capturing everything a real evaluation
    would have produced — the trace subtree, the journal-ID range it
    consumed, the inference variables it allocated and the bindings it
    left behind — so a hit replays to a {e bit-identical} solver state
    (same gids, same variable numbers, same undo log).

    {2 Cycle safety}

    A memoized subtree is only valid where a fresh evaluation would have
    unfolded identically.  The solver's cycle check ({!Solve.cycles})
    compares the current predicate against the evaluation stack with
    [Predicate.equal]; a cached subtree evaluated under one stack could
    behave differently under another.  Three facts restore soundness:

    {ul
    {- every stack-dependent decision inside an evaluation produces an
       [Overflow]- or [Depth_limit]-flagged leaf {e inside the subtree}
       — so entries whose subtree carries either flag are never cached;}
    {- a [NormalizesTo] predicate embeds a freshly allocated output
       variable, so it can never [Predicate.equal]-match a predicate
       pushed earlier by an enclosing evaluation;}
    {- an inner predicate mentioning inference variables allocated
       during the evaluation cannot match an enclosing stack entry
       either: on replay those variables are renumbered above
       [Infer_ctx.num_vars], and no predicate resolved earlier can
       mention a variable that did not yet exist.}

    What remains is exactly the {e ground} [Trait]/[Projection]
    predicates occurring inside the subtree ([e_touched]): a hit is
    refused when any of them matches the current stack, and when the
    replayed subtree would not clear the current depth limit.

    {2 Storage}

    The cache is a value, one per run: {!Obligations.solve_program},
    a coherence pass or a type-checking pass creates one, every
    {!Solve.t} of the run shares it, and it goes when the run's solver
    state does.  Nothing is evicted and nothing carries over to the
    next run, so keys need no program stamp.  A key is the predicate
    itself plus the solver's param-env and depth limit, hashed
    structurally and compared with [Predicate.equal] — whose [==] fast
    path fires on ground goals, since {!Infer_ctx.resolve} hands back
    the program's own terms unchanged. *)

open Trait_lang

let c_tree_hit = Telemetry.counter "cache.tree.hits"
let c_tree_miss = Telemetry.counter "cache.tree.misses"
let c_tree_insert = Telemetry.counter "cache.tree.inserts"
let c_tree_reject = Telemetry.counter "cache.tree.rejects"

(* ------------------------------------------------------------------ *)
(* Entries *)

type tree_entry = {
  e_node : Trace.goal_node;  (** as evaluated, pre-replay stamping *)
  e_root_gid : int;
  e_ids : int;  (** journal IDs consumed {e after} the root gid *)
  e_var_start : int;  (** [Infer_ctx.num_vars] when evaluation began *)
  e_vars : int;  (** inference variables allocated by the evaluation *)
  e_slots : Infer_ctx.binding array;  (** final slots of the allocated range *)
  e_depth : int;
  e_max_depth_off : int;  (** deepest subtree node, relative to [e_depth] *)
  e_touched : Predicate.t list;  (** ground Trait/Projection preds inside *)
}

(* ------------------------------------------------------------------ *)
(* Keys and the table *)

(* Everything an evaluation's outcome depends on besides the goal and
   the program: one per solver, shared by all its keys. *)
type scope = {
  s_env : Predicate.t list;  (** elaborated param-env *)
  s_depth_limit : int;
  s_hash : int;
}

type key = {
  k_scope : scope;
  k_pred : Predicate.t;
  k_hash : int;
}

module Tbl = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.k_hash = b.k_hash
    && Predicate.equal a.k_pred b.k_pred
    && (a.k_scope == b.k_scope
       || a.k_scope.s_depth_limit = b.k_scope.s_depth_limit
          && List.equal Predicate.equal a.k_scope.s_env b.k_scope.s_env)

  let hash k = k.k_hash
end)

type t = tree_entry Tbl.t

(* A corpus run inserts about six entries: start small. *)
let create () : t = Tbl.create 8

type ctx = { x_cache : t; x_scope : scope }

(* Structural, bounded: a deep predicate hashes in constant time, and
   the rare collision falls through to [Predicate.equal]. *)
let hash_pred (p : Predicate.t) = Hashtbl.hash_param 20 100 p

let make_ctx cache ~depth_limit (env : Predicate.t list) : ctx =
  let s_hash = Hashtbl.hash_param 20 100 (depth_limit, env) in
  { x_cache = cache; x_scope = { s_env = env; s_depth_limit = depth_limit; s_hash } }

let tree_key ctx (pred : Predicate.t) : key =
  let sc = ctx.x_scope in
  { k_scope = sc; k_pred = pred; k_hash = sc.s_hash lxor (hash_pred pred * 65599) }

let enabled_flag = ref true
let set_enabled b = enabled_flag := b

(* The one rule: the switch is on and no journal is recording.  A
   recording solve must emit every event of the search, so it neither
   reads nor fills the cache.  Every caller asks this before a lookup;
   the functions below check only the switch. *)
let enabled () = !enabled_flag && not (Journal.enabled ())

let clear () = ()

let length = Tbl.length

(* ------------------------------------------------------------------ *)
(* Lookup *)

(** A usable memoized subtree for [key] at [depth] under [stack], if any.
    Guards: the replayed subtree must clear the depth limit everywhere
    (every depth-limit comparison the original evaluation passed must
    still pass), and no ground predicate inside it may cycle-match the
    current evaluation stack. *)
let find_tree ctx key ~depth ~(stack : Predicate.t list) : tree_entry option =
  if not !enabled_flag then None
  else
    let hit =
      match Tbl.find_opt ctx.x_cache key with
      | Some e
        when depth + e.e_max_depth_off <= key.k_scope.s_depth_limit
             && not
                  (List.exists (fun p -> List.exists (Predicate.equal p) stack) e.e_touched)
        ->
          Some e
      | _ -> None
    in
    Telemetry.incr (if Option.is_some hit then c_tree_hit else c_tree_miss);
    hit

(* ------------------------------------------------------------------ *)
(* Insertion *)

(** Everything {!try_insert} needs to reconstruct (and validate) what an
    evaluation consumed; opened by the solver right before dispatching a
    cacheable goal. *)
type frame = {
  f_key : key;
  f_gid : int;
  f_id_mark : int;  (** {!Journal.peek_id} after the root gid *)
  f_var_start : int;
  f_undo_mark : int;
  f_depth : int;
}

let open_frame icx ~key ~gid ~depth : frame =
  {
    f_key = key;
    f_gid = gid;
    f_id_mark = Journal.peek_id ();
    f_var_start = Infer_ctx.num_vars icx;
    f_undo_mark = Infer_ctx.undo_mark icx;
    f_depth = depth;
  }

(* Does every inference variable in the term date from the evaluation? *)
let var_ok ~start ok (t : Ty.t) = ok && match t with Infer v -> v >= start | _ -> true
let vars_ok ~start p = Predicate.fold_tys (var_ok ~start) true p
let ty_ok ~start t = Ty.fold (var_ok ~start) true t

let failure_ok ~start (f : Journal.unify_failure) =
  match f with
  | Head_mismatch (a, b) | Arity (a, b) -> ty_ok ~start a && ty_ok ~start b
  | Region_mismatch _ -> true
  | Occurs (i, t) -> i >= start && ty_ok ~start t
  | Projection_ambiguous (p, t) -> ty_ok ~start (Ty.Proj p) && ty_ok ~start t

(** Validate and store a finished evaluation.  Refused (leaving the cache
    unchanged) when the subtree:
    - carries any [Overflow]/[Depth_limit] flag (stack/limit-dependent);
    - persistently bound an inference variable that predates the
      evaluation, or references one from a binding or failure payload
      (cannot be renumbered into another solver's variable space). *)
let try_insert ctx icx (f : frame) (node : Trace.goal_node) =
  if !enabled_flag then begin
    let start = f.f_var_start in
    let ok = ref true in
    let max_depth = ref f.f_depth in
    let touched = ref [] in
    let check_goal () (g : Trace.goal_node) =
      if g.depth > !max_depth then max_depth := g.depth;
      if Trace.is_overflow g then ok := false;
      if not (vars_ok ~start g.pred) then ok := false;
      (match g.pred with
      | Predicate.Trait _ | Predicate.Projection _ ->
          if not (Predicate.has_infer g.pred) then touched := g.pred :: !touched
      | _ -> ());
      List.iter
        (fun (c : Trace.cand_node) ->
          match c.failure with
          | Some fl when not (failure_ok ~start fl) -> ok := false
          | _ -> ())
        g.candidates
    in
    Trace.fold_goals check_goal () node;
    if not (List.for_all (fun i -> i >= start) (Infer_ctx.sets_since icx f.f_undo_mark))
    then ok := false;
    let n_vars = Infer_ctx.num_vars icx - start in
    let slots =
      Array.init n_vars (fun k ->
          let b = Infer_ctx.slot icx (start + k) in
          (match b with
          | Infer_ctx.Unbound -> ()
          | Infer_ctx.Link j -> if j < start then ok := false
          | Infer_ctx.Bound t -> if not (ty_ok ~start t) then ok := false);
          b)
    in
    if !ok then begin
      Telemetry.incr c_tree_insert;
      (* [replace], not [add]: re-insertion after an unusable hit (e.g.
         insufficient depth headroom) keeps the freshest entry. *)
      Tbl.replace ctx.x_cache f.f_key
        {
          e_node = node;
          e_root_gid = f.f_gid;
          e_ids = Journal.peek_id () - f.f_id_mark;
          e_var_start = start;
          e_vars = n_vars;
          e_slots = slots;
          e_depth = f.f_depth;
          e_max_depth_off = !max_depth - f.f_depth;
          e_touched = !touched;
        }
    end
    else Telemetry.incr c_tree_reject
  end

(* ------------------------------------------------------------------ *)
(* Replay *)

(** Reconstruct the exact post-evaluation solver state from a memoized
    entry: reserve the journal-ID range the evaluation consumed,
    allocate the same number of fresh inference variables, write back
    the captured bindings (renumbered, undo-logged), and return the
    subtree restamped into the caller's id/variable/depth space with the
    caller's provenance at the root. *)
let replay icx ~gid ~depth ~prov (e : tree_entry) : Trace.goal_node =
  Journal.bump_ids e.e_ids;
  let var_start = Infer_ctx.alloc_vars icx e.e_vars in
  let vd = var_start - e.e_var_start in
  let gd = gid - e.e_root_gid in
  let dd = depth - e.e_depth in
  (* Variable shifting preserves sharing ({!Ty.map_infer}): a term whose
     variables all predate the evaluation comes back physically. *)
  let sv v = if v >= e.e_var_start then v + vd else v in
  let snode node v = if v >= e.e_var_start then Ty.Infer (v + vd) else node in
  let sty t = if vd = 0 then t else Ty.map_infer snode t in
  let spred (p : Predicate.t) : Predicate.t =
    if vd = 0 then p
    else
      match p with
      | NormalizesTo (pr, v) ->
          (* the output variable shifts too *)
          let pr' = Ty.map_infer_projection snode pr and v' = sv v in
          if pr' == pr && v' = v then p else NormalizesTo (pr', v')
      | _ -> Predicate.map_infer snode p
  in
  Array.iteri
    (fun k (b : Infer_ctx.binding) ->
      match b with
      | Unbound -> ()
      | Link j -> Infer_ctx.set_slot icx (var_start + k) (Infer_ctx.Link (sv j))
      | Bound t -> Infer_ctx.set_slot icx (var_start + k) (Infer_ctx.Bound (sty t)))
    e.e_slots;
  if gd = 0 && dd = 0 && vd = 0 then { e.e_node with provenance = prov }
  else begin
    let sfail (fl : Journal.unify_failure) : Journal.unify_failure =
      if vd = 0 then fl
      else
        match fl with
        | Head_mismatch (a, b) -> Head_mismatch (sty a, sty b)
        | Arity (a, b) -> Arity (sty a, sty b)
        | Region_mismatch _ as r -> r
        | Occurs (i, t) -> Occurs (sv i, sty t)
        | Projection_ambiguous (p, t) ->
            Projection_ambiguous (Ty.map_infer_projection snode p, sty t)
    in
    let rec goal (g : Trace.goal_node) : Trace.goal_node =
      {
        g with
        gid = g.gid + gd;
        depth = g.depth + dd;
        pred = spred g.pred;
        candidates = List.map cand g.candidates;
      }
    and cand (c : Trace.cand_node) : Trace.cand_node =
      {
        c with
        cid = c.cid + gd;
        subgoals = List.map goal c.subgoals;
        failure = Option.map sfail c.failure;
      }
    in
    let root = goal e.e_node in
    { root with provenance = prov }
  end

(** The global trait-solver evaluation cache.

    Trait solving re-derives the same facts constantly: coherence checks
    every impl's bounds, the obligation engine re-runs [Maybe] goals to a
    fixpoint, method-resolution probes re-ask receiver predicates, and
    deep where-clause trees share subgoals.  rustc memoizes evaluations
    per canonical query; this module does the same for L_TRAIT, in two
    tiers:

    {ul
    {- the {b tree tier} memoizes whole proof-tree fragments for {e
       ground} [Trait]/[Projection] goals, capturing everything a real
       evaluation would have produced — the trace subtree, the journal-ID
       range it consumed, the inference variables it allocated and the
       bindings it left behind — so a hit replays to a {e bit-identical}
       solver state (same gids, same variable numbers, same undo log);}
    {- the {b result tier} memoizes bare verdicts ([yes]/[maybe]/[no])
       for canonicalized goals evaluated from an empty stack — the
       shape coherence and speculative method probes consume when they
       only need the answer, not the tree.}}

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

    {2 Domain safety}

    The cache is shared across domains and {b sharded}: [num_shards]
    independent shards, selected by the canonical key hash, each with
    its own tables, LRU clock, and mutex, so serve sessions on pool
    workers contend on a shard only when two domains touch keys that hash
    together.  Entry validation ([try_insert]'s subtree walk) runs
    outside the lock — it reads only domain-local solver state — and the
    critical sections are plain table operations.  Keys embed the
    program stamp and the inserting domain's interned predicate
    (compared with [==]), so entries are only ever hit by the domain
    that canonicalized the same terms — cross-domain lookups miss
    harmlessly rather than alias.  [cache.shard.contention] counts
    lock acquisitions that had to wait. *)

open Trait_lang

let c_tree_hit = Telemetry.counter "cache.tree.hits"
let c_tree_miss = Telemetry.counter "cache.tree.misses"
let c_tree_insert = Telemetry.counter "cache.tree.inserts"
let c_tree_reject = Telemetry.counter "cache.tree.rejects"
let c_result_hit = Telemetry.counter "cache.result.hits"
let c_result_miss = Telemetry.counter "cache.result.misses"
let c_shard_contention = Telemetry.counter "cache.shard.contention"

(* ------------------------------------------------------------------ *)
(* Keys *)

type ctx = {
  x_stamp : int;  (** {!Program.stamp} — identifies the declaration set *)
  x_env : Predicate.t list;  (** elaborated param-env, interned *)
  x_depth_limit : int;
  x_hash : int;
}

let make_ctx ~stamp ~depth_limit (env : Predicate.t list) : ctx =
  let env = List.map Interner.predicate env in
  let h =
    List.fold_left
      (fun h p -> (h * 31) + (Interner.predicate_info p).Interner.id)
      (Hashtbl.hash (stamp, depth_limit))
      env
  in
  { x_stamp = stamp; x_env = env; x_depth_limit = depth_limit; x_hash = h }

let ctx_env c = c.x_env

let ctx_equal a b =
  a == b
  || a.x_stamp = b.x_stamp
     && a.x_depth_limit = b.x_depth_limit
     && List.length a.x_env = List.length b.x_env
     && List.for_all2 ( == ) a.x_env b.x_env

type key = {
  k_ctx : ctx;
  k_pred : Predicate.t;  (** interned; canonical when [k_vars > 0] *)
  k_vars : int;
  k_hash : int;
}

let tree_key ctx (pred : Predicate.t) : key =
  let info = Interner.predicate_info pred in
  {
    k_ctx = ctx;
    k_pred = info.Interner.node;
    k_vars = 0;
    k_hash = ctx.x_hash lxor (info.Interner.hash * 65599);
  }

let result_key ctx (c : Canonical.canonical) : key =
  let info = Interner.predicate_info c.c_pred in
  {
    k_ctx = ctx;
    k_pred = info.Interner.node;
    k_vars = c.c_vars;
    k_hash = ctx.x_hash lxor (info.Interner.hash * 65599) lxor (c.c_vars * 7919);
  }

module K = struct
  type t = key

  let equal a b =
    a.k_hash = b.k_hash && a.k_vars = b.k_vars && a.k_pred == b.k_pred
    && ctx_equal a.k_ctx b.k_ctx

  let hash k = k.k_hash
end

module Tbl = Hashtbl.Make (K)

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
  mutable e_lru : int;
}

type result_entry = { r_res : Res.t; mutable r_lru : int }

(* ------------------------------------------------------------------ *)
(* Shards *)

(* Sixteen independent shards, selected by the low bits of the canonical
   key hash.  Each shard owns its own tables, LRU clock, and mutex, so
   two domains only contend when their keys hash into the same shard.
   Per-shard capacity is generous (1024 per tier × 16 shards ≥ the old
   4096 global budget) so eviction pressure — the only cross-unit
   interaction left once keys embed fresh program stamps — stays out of
   the way of a whole-corpus run. *)

type shard = {
  s_mutex : Mutex.t;
  s_tree : tree_entry Tbl.t;
  s_result : result_entry Tbl.t;
  mutable s_clock : int;
}

let num_shards = 16
let shard_capacity = 1024

let shards =
  Array.init num_shards (fun _ ->
      {
        s_mutex = Mutex.create ();
        s_tree = Tbl.create 64;
        s_result = Tbl.create 64;
        s_clock = 0;
      })

let shard_of (key : key) = shards.(key.k_hash land (num_shards - 1))

let lock_shard s =
  if not (Mutex.try_lock s.s_mutex) then begin
    Telemetry.incr c_shard_contention;
    Mutex.lock s.s_mutex
  end

let with_shard s f =
  lock_shard s;
  match f s with
  | v ->
      Mutex.unlock s.s_mutex;
      v
  | exception e ->
      Mutex.unlock s.s_mutex;
      raise e

let tick s =
  s.s_clock <- s.s_clock + 1;
  s.s_clock

(* Evict the least-recently-used half when full: O(n log n) amortized
   over n/2 inserts. *)
let evict_half (type e) (tbl : e Tbl.t) (lru_of : e -> int) =
  let all = Tbl.fold (fun k e acc -> (k, e) :: acc) tbl [] in
  let sorted = List.sort (fun (_, a) (_, b) -> compare (lru_of a) (lru_of b)) all in
  let n = List.length sorted / 2 in
  List.iteri (fun i (k, _) -> if i < n then Tbl.remove tbl k) sorted

let enabled_flag = Atomic.make true
let set_enabled b = Atomic.set enabled_flag b

(* The one rule: the switch is on and no journal is recording on this
   domain.  A recording solve must emit every event of the search, so
   it neither reads nor fills the cache.  Every caller asks this before
   a lookup; the tier functions below check only the switch. *)
let enabled () = Atomic.get enabled_flag && not (Journal.enabled ())

let clear () =
  Array.iter
    (fun s ->
      with_shard s (fun s ->
          Tbl.reset s.s_tree;
          Tbl.reset s.s_result;
          s.s_clock <- 0))
    shards

type stats = { cs_tree : int; cs_result : int }

let stats () =
  Array.fold_left
    (fun acc s ->
      with_shard s (fun s ->
          {
            cs_tree = acc.cs_tree + Tbl.length s.s_tree;
            cs_result = acc.cs_result + Tbl.length s.s_result;
          }))
    { cs_tree = 0; cs_result = 0 }
    shards

(* ------------------------------------------------------------------ *)
(* Tree tier: lookup *)

(** A usable memoized subtree for [key] at [depth] under [stack], if any.
    Guards: the replayed subtree must clear the depth limit everywhere
    (every depth-limit comparison the original evaluation passed must
    still pass), and no ground predicate inside it may cycle-match the
    current evaluation stack. *)
let find_tree key ~depth ~(stack : Predicate.t list) : tree_entry option =
  if not (Atomic.get enabled_flag) then None
  else
    let hit =
      with_shard (shard_of key) (fun s ->
          match Tbl.find_opt s.s_tree key with
          | None -> None
          | Some e ->
              if
                depth + e.e_max_depth_off <= key.k_ctx.x_depth_limit
                && not
                     (List.exists
                        (fun p -> List.exists (Predicate.equal p) stack)
                        e.e_touched)
              then begin
                e.e_lru <- tick s;
                Some e
              end
              else None)
    in
    (match hit with
    | Some _ -> Telemetry.incr c_tree_hit
    | None -> Telemetry.incr c_tree_miss);
    hit

(* ------------------------------------------------------------------ *)
(* Tree tier: insertion *)

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

let vars_ok ~start p = List.for_all (fun v -> v >= start) (Predicate.infer_vars p)
let ty_ok ~start t = List.for_all (fun v -> v >= start) (Ty.infer_vars t)

let failure_ok ~start (f : Unify.failure) =
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
let try_insert icx (f : frame) (node : Trace.goal_node) =
  if Atomic.get enabled_flag then begin
    let start = f.f_var_start in
    let ok = ref true in
    let max_depth = ref f.f_depth in
    let touched = ref [] in
    let check_goal () (g : Trace.goal_node) =
      if g.depth > !max_depth then max_depth := g.depth;
      if List.mem Trace.Overflow g.flags || List.mem Trace.Depth_limit g.flags then
        ok := false;
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
      (* Validation above reads only domain-local solver state; only the
         table mutation itself takes the shard lock. *)
      let ids = Journal.peek_id () - f.f_id_mark in
      with_shard (shard_of f.f_key) (fun s ->
          if Tbl.length s.s_tree >= shard_capacity then
            evict_half s.s_tree (fun e -> e.e_lru);
          (* [replace], not [add]: re-insertion after an unusable hit (e.g.
             insufficient depth headroom) keeps the freshest entry. *)
          Tbl.replace s.s_tree f.f_key
            {
              e_node = node;
              e_root_gid = f.f_gid;
              e_ids = ids;
              e_var_start = start;
              e_vars = n_vars;
              e_slots = slots;
              e_depth = f.f_depth;
              e_max_depth_off = !max_depth - f.f_depth;
              e_touched = !touched;
              e_lru = tick s;
            })
    end
    else Telemetry.incr c_tree_reject
  end

(* ------------------------------------------------------------------ *)
(* Tree tier: replay *)

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
  let sv v = if v >= e.e_var_start then v + vd else v in
  let sty t = Canonical.shift_ty ~start:e.e_var_start ~delta:vd t in
  let spred p = Canonical.shift_predicate ~start:e.e_var_start ~delta:vd p in
  Array.iteri
    (fun k (b : Infer_ctx.binding) ->
      match b with
      | Unbound -> ()
      | Link j -> Infer_ctx.set_slot icx (var_start + k) (Infer_ctx.Link (sv j))
      | Bound t -> Infer_ctx.set_slot icx (var_start + k) (Infer_ctx.Bound (sty t)))
    e.e_slots;
  if gd = 0 && dd = 0 && vd = 0 then { e.e_node with provenance = prov }
  else begin
    let sfail (fl : Unify.failure) : Unify.failure =
      if vd = 0 then fl
      else
        match fl with
        | Head_mismatch (a, b) -> Head_mismatch (sty a, sty b)
        | Arity (a, b) -> Arity (sty a, sty b)
        | Region_mismatch _ as r -> r
        | Occurs (i, t) -> Occurs (sv i, sty t)
        | Projection_ambiguous (p, t) ->
            Projection_ambiguous
              (Canonical.shift_projection ~start:e.e_var_start ~delta:vd p, sty t)
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

(* ------------------------------------------------------------------ *)
(* Result tier *)

let find_result key : Res.t option =
  if not (Atomic.get enabled_flag) then None
  else
    let hit =
      with_shard (shard_of key) (fun s ->
          match Tbl.find_opt s.s_result key with
          | Some e ->
              e.r_lru <- tick s;
              Some e.r_res
          | None -> None)
    in
    Telemetry.incr (if Option.is_some hit then c_result_hit else c_result_miss);
    hit

let insert_result key res =
  if Atomic.get enabled_flag then
    with_shard (shard_of key) (fun s ->
        if Tbl.length s.s_result >= shard_capacity then
          evict_half s.s_result (fun e -> e.r_lru);
        Tbl.replace s.s_result key { r_res = res; r_lru = tick s })

(* ------------------------------------------------------------------ *)
(* Stamp eviction *)

(** Drop every entry of both tiers whose key carries program stamp
    [stamp], returning how many went.  Stamps are never reused, so once
    a session moves off a program its entries could only be hit by
    another holder of the same program value; without this they sit in
    the shards until the LRU cap pushes them out. *)
let evict_stamp stamp =
  let n = ref 0 in
  let drop tbl =
    Tbl.filter_map_inplace
      (fun k e ->
        if k.k_ctx.x_stamp = stamp then begin
          incr n;
          None
        end
        else Some e)
      tbl
  in
  Array.iter
    (fun s ->
      with_shard s (fun s ->
          drop s.s_tree;
          drop s.s_result))
    shards;
  !n

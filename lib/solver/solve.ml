(** The trait solver: given a context and a predicate, produce the trait
    inference tree 𝒢 (Fig. 5).

    The solver mirrors the architecture of rustc's ("next") trait solver at
    the level of detail the paper depends on:

    - {b candidate assembly}: in-scope where-clauses (param-env), impl
      blocks, and built-in impls (fn pointers/items for the [Fn] family,
      [Sized]) are all probed as alternatives — the OR branching of the
      AND/OR tree;
    - {b speculative probing}: each candidate is evaluated under an
      inference snapshot and rolled back, keeping the bindings it made; a
      uniquely successful candidate is committed by writing those
      bindings back, never by evaluating it again — which is how trait
      solving guides type inference (the Bevy marker-type deduction of
      §2.3);
    - {b normalization}: associated-type projections are normalized through
      impls via *stateful* [NormalizesTo] nodes whose value is captured
      after their subtree executes (§4);
    - {b overflow}: revisiting a predicate already on the evaluation stack,
      or exceeding the recursion limit, fails with an overflow marker
      (E0275, the §2.2 infinite recursion).

    Every step is journaled (see lib/journal): goals and candidates open
    and close event frames carrying the stable IDs stored in the trace
    nodes, so the event stream replays to exactly the tree this module
    returns.  Every goal the solver evaluates is in the stream: a commit
    re-derives nothing. *)

open Trait_lang

(* Telemetry handles, resolved once at module init.  Every record below is
   a single branch while the sink is disabled; see lib/telemetry. *)
let c_goals = Telemetry.counter "solver.goals"
let c_cand_env = Telemetry.counter "solver.candidates.param_env"
let c_cand_impl = Telemetry.counter "solver.candidates.impl"
let c_cand_builtin = Telemetry.counter "solver.candidates.builtin"
let c_overflow = Telemetry.counter "solver.overflow"
let c_ambiguous = Telemetry.counter "solver.ambiguous_selection"
let c_normalize = Telemetry.counter "solver.normalizations"
let c_probe_roots = Telemetry.counter "solver.probe_roots"
let sp_goal = Telemetry.span "solver.goal"
let sp_root = Telemetry.span "solver.solve"

type config = { depth_limit : int  (** recursion limit; rustc's default is 128 *) }

let default_config = { depth_limit = 48 }

type t = {
  program : Program.t;
  icx : Infer_ctx.t;
  cfg : config;
  env : Predicate.t list;  (** in-scope where-clauses, supertrait-elaborated *)
  cache_ctx : Eval_cache.ctx;  (** evaluation-cache key context *)
  mutable stack : Predicate.t list;  (** in-progress predicates, for cycles *)
}

(** Result of deeply normalizing a type: the rewritten type plus the
    stateful [NormalizesTo] nodes generated along the way. *)
type norm_result = { norm_ty' : Ty.t; norm_nodes : Trace.goal_node list }

(** Result of normalizing one projection. *)
type proj_norm = { norm_ty : Ty.t option; norm_node : Trace.goal_node }

(* ------------------------------------------------------------------ *)
(* Supertrait elaboration: if [τ: T] is in scope and [trait T: Super],
   then [τ: Super] is also usable as a candidate. *)

let elaborate_env program (env : Predicate.t list) : Predicate.t list =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let rec add (p : Predicate.t) =
    let key = Pretty.predicate ~cfg:Pretty.verbose p in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out := p :: !out;
      match p with
      | Predicate.Trait { self_ty; trait_ref } -> (
          match Program.find_trait program trait_ref.trait with
          | None -> ()
          | Some tr ->
              let subst =
                let s = Subst.add_ty "Self" self_ty Subst.empty in
                List.fold_left2
                  (fun s param arg ->
                    match arg with Ty.Ty t -> Subst.add_ty param t s | _ -> s)
                  s tr.tr_generics.ty_params
                  (List.filter (function Ty.Ty _ -> true | _ -> false) trait_ref.args)
              in
              List.iter
                (fun super ->
                  add (Predicate.Trait { self_ty; trait_ref = Subst.trait_ref subst super }))
                tr.tr_supertraits)
      | _ -> ()
    end
  in
  List.iter add env;
  List.rev !out

let create ?(cfg = default_config) ?(env = []) ?(cache = Eval_cache.create ()) program =
  let env = elaborate_env program env in
  {
    program;
    icx = Infer_ctx.for_program program;
    cfg;
    env;
    cache_ctx = Eval_cache.make_ctx cache ~depth_limit:cfg.depth_limit env;
    stack = [];
  }

(* ------------------------------------------------------------------ *)
(* Helpers *)

let leaf ~gid ~depth ~prov ?(flags = []) pred result : Trace.goal_node =
  { gid; pred; result; candidates = []; depth; provenance = prov; flags }

let is_fn_family trait_path =
  match Path.name trait_path with "Fn" | "FnMut" | "FnOnce" -> true | _ -> false

let is_sized trait_path = Path.name trait_path = "Sized"

(** Is the type's head known (not an unresolved inference variable)? *)
let head_known icx ty =
  match Unify.shallow icx ty with Ty.Infer _ -> false | _ -> true

(** Close a candidate probe: roll back to [snap], keeping the bindings
    of a successful probe so {!select} can commit them. *)
let finish_probe st snap (node : Trace.cand_node) : Trace.cand_node * Infer_ctx.bindings =
  let bindings =
    if Res.is_yes node.cand_result then Infer_ctx.rollback_keep st.icx snap
    else begin
      Infer_ctx.rollback_to st.icx snap;
      []
    end
  in
  Jlog.cand_exit node;
  (node, bindings)

(** A candidate that makes no bindings. *)
let no_probe (node : Trace.cand_node) : Trace.cand_node * Infer_ctx.bindings =
  Jlog.cand_exit node;
  (node, [])

(* ------------------------------------------------------------------ *)
(* The mutually recursive solver core. *)

let rec solve_goal st ~depth prov (pred0 : Predicate.t) : Trace.goal_node =
  Telemetry.incr c_goals;
  let tok = Telemetry.begin_ sp_goal in
  let pred = Infer_ctx.resolve_predicate st.icx pred0 in
  let gid = Journal.fresh_id () in
  Jlog.goal_enter ~id:gid ~depth prov pred;
  let node =
    if depth > st.cfg.depth_limit then begin
      Telemetry.incr c_overflow;
      Jlog.overflow ~id:gid ~depth_limited:true;
      leaf ~gid ~depth ~prov ~flags:[ Journal.Depth_limit; Journal.Overflow ] pred Res.No
    end
    else if cycles st pred then begin
      Telemetry.incr c_overflow;
      Jlog.cycle ~id:gid pred;
      Jlog.overflow ~id:gid ~depth_limited:false;
      leaf ~gid ~depth ~prov ~flags:[ Journal.Overflow ] pred Res.No
    end
    else begin
      let evaluate () =
        st.stack <- pred :: st.stack;
        let node =
          match pred with
          | Predicate.Trait tp -> solve_trait st ~gid ~depth ~prov pred tp
          | Predicate.Projection pp -> solve_projection st ~gid ~depth ~prov pred pp
          | Predicate.TypeOutlives (ty, _) ->
              leaf ~gid ~depth ~prov pred (if Ty.has_infer ty then Res.Maybe else Res.Yes)
          | Predicate.RegionOutlives _ -> leaf ~gid ~depth ~prov pred Res.Yes
          | Predicate.WellFormed ty ->
              leaf ~gid ~depth ~prov pred (if Ty.has_infer ty then Res.Maybe else Res.Yes)
          | Predicate.ObjectSafe _ | Predicate.ConstEvaluatable _ ->
              leaf ~gid ~depth ~prov pred Res.Yes
          | Predicate.NormalizesTo (proj, var) ->
              let n = normalize_proj st ~id:gid ~depth ~prov proj in
              (match n.norm_ty with
              | Some ty when Res.is_yes n.norm_node.result ->
                  (* capture the value into the output variable *)
                  (match Unify.unify st.icx (Ty.Infer var) ty with
                  | Ok () -> ()
                  | Error _ -> ())
              | _ -> ());
              { n.norm_node with provenance = prov; flags = Journal.Stateful :: n.norm_node.flags }
        in
        st.stack <- List.tl st.stack;
        node
      in
      let cacheable =
        Eval_cache.enabled ()
        &&
        match pred with
        | Predicate.Trait _ | Predicate.Projection _ -> not (Predicate.has_infer pred)
        | _ -> false
      in
      if not cacheable then evaluate ()
      else begin
        let key = Eval_cache.tree_key st.cache_ctx pred in
        match Eval_cache.find_tree st.cache_ctx key ~depth ~stack:st.stack with
        | Some entry -> Eval_cache.replay st.icx ~gid ~depth ~prov entry
        | None ->
            let frame = Eval_cache.open_frame st.icx ~key ~gid ~depth in
            let node = evaluate () in
            Eval_cache.try_insert st.cache_ctx st.icx frame node;
            node
      end
    end
  in
  (* the exit event is authoritative for replay: a [NormalizesTo] node's
     predicate and flags are rewritten between enter and exit *)
  Jlog.goal_exit node;
  Telemetry.end_ sp_goal tok;
  node

and cycles st pred =
  match pred with
  | Predicate.Trait _ | Predicate.Projection _ | Predicate.NormalizesTo _ ->
      List.exists (Predicate.equal pred) st.stack
  | _ -> false

(* --- trait predicates --------------------------------------------- *)

and solve_trait st ~gid ~depth ~prov pred (tp : Predicate.trait_pred) : Trace.goal_node =
  let self = Unify.shallow st.icx tp.self_ty in
  match self with
  | Ty.Infer _ ->
      (* Cannot enumerate candidates for an unknown self type: ambiguous.
         The obligation engine will retry once inference progresses. *)
      leaf ~gid ~depth ~prov pred Res.Maybe
  | _ ->
      let env_cands =
        List.filter_map
          (fun envp ->
            match envp with
            | Predicate.Trait etp when Path.equal etp.trait_ref.trait tp.trait_ref.trait ->
                Some (eval_env_candidate st ~goal:gid envp etp tp)
            | _ -> None)
          st.env
      in
      let impl_cands =
        Fast_reject.candidates st.program tp.trait_ref.trait self
        |> List.map (fun impl -> eval_impl_candidate st ~goal:gid ~depth impl tp)
      in
      let builtin_cands = builtin_candidates st ~goal:gid ~depth tp in
      Telemetry.add c_cand_env (List.length env_cands);
      Telemetry.add c_cand_impl (List.length impl_cands);
      Telemetry.add c_cand_builtin (List.length builtin_cands);
      Jlog.cand_assembled ~goal:gid
        ~param_env:(List.length env_cands)
        ~impls:(List.length impl_cands)
        ~builtin:(List.length builtin_cands);
      select st ~gid ~depth ~prov pred (env_cands @ impl_cands @ builtin_cands)

(** Candidate selection: commit a uniquely successful candidate so its
    inference-variable bindings guide the rest of solving.  The winner
    was already evaluated and rolled back; committing writes back the
    bindings its probe made. *)
and select st ~gid ~depth ~prov pred probed : Trace.goal_node =
  let yes = List.filter (fun ((c : Trace.cand_node), _) -> Res.is_yes c.cand_result) probed in
  let candidates = List.map fst probed in
  let env_yes =
    List.filter
      (fun ((c : Trace.cand_node), _) ->
        match c.source with Trace.Cand_param_env _ -> true | _ -> false)
      yes
  in
  let result, flags, to_commit =
    match (env_yes, yes) with
    | c :: _, _ -> (Res.Yes, [], Some c)  (* param-env candidates take priority *)
    | [], [ c ] -> (Res.Yes, [], Some c)
    | [], _ :: _ :: _ ->
        Telemetry.incr c_ambiguous;
        Jlog.ambiguity ~id:gid ~succeeded:(List.length yes);
        (Res.Maybe, [ Journal.Ambiguous_selection ], None)
    | [], [] ->
        if List.exists (fun (c : Trace.cand_node) -> Res.is_maybe c.cand_result) candidates
        then (Res.Maybe, [], None)
        else (Res.No, [], None)
  in
  (match to_commit with
  | Some ((c : Trace.cand_node), bindings) ->
      Jlog.cand_commit ~goal:gid ~cand:c.cid;
      Infer_ctx.reapply st.icx bindings
  | None -> ());
  { gid; pred; result; candidates; depth; provenance = prov; flags }

and eval_env_candidate st ~goal envp (etp : Predicate.trait_pred) (tp : Predicate.trait_pred) :
    Trace.cand_node * Infer_ctx.bindings =
  let cid = Journal.fresh_id () in
  Jlog.cand_enter ~id:cid ~goal (Trace.Cand_param_env envp);
  let snap = Infer_ctx.snapshot st.icx in
  let outcome =
    match Unify.unify st.icx tp.self_ty etp.self_ty with
    | Error f -> Error f
    | Ok () -> Unify.unify_trait_refs st.icx tp.trait_ref etp.trait_ref
  in
  let node : Trace.cand_node =
    match outcome with
    | Ok () ->
        { cid; source = Trace.Cand_param_env envp; cand_result = Res.Yes; subgoals = []; failure = None }
    | Error f ->
        { cid; source = Trace.Cand_param_env envp; cand_result = Res.No; subgoals = []; failure = Some f }
  in
  finish_probe st snap node

and eval_impl_candidate st ~goal ~depth (impl : Decl.impl) (tp : Predicate.trait_pred) :
    Trace.cand_node * Infer_ctx.bindings =
  let cid = Journal.fresh_id () in
  Jlog.cand_enter ~id:cid ~goal (Trace.Cand_impl impl);
  let snap = Infer_ctx.snapshot st.icx in
  let subst = Infer_ctx.instantiate_generics st.icx impl.impl_generics in
  let head_self = Subst.ty subst impl.impl_self in
  let head_trait = Subst.trait_ref subst impl.impl_trait in
  (* Normalize projections on both sides of the head before matching. *)
  let n_self = deep_normalize st ~depth tp.self_ty in
  let n_head = deep_normalize st ~depth head_self in
  let norm_nodes = n_self.norm_nodes @ n_head.norm_nodes in
  let head_outcome =
    match Unify.unify st.icx n_self.norm_ty' n_head.norm_ty' with
    | Error f -> Error ([], f)
    | Ok () -> unify_trait_refs_norm st ~depth tp.trait_ref head_trait
  in
  let node =
    match head_outcome with
    | Error (extra, f) ->
        {
          Trace.cid;
          source = Trace.Cand_impl impl;
          cand_result = Res.No;
          subgoals = norm_nodes @ extra;
          failure = Some f;
        }
    | Ok extra_nodes ->
        let subgoals =
          List.mapi
            (fun idx wc ->
              solve_goal st ~depth:(depth + 1)
                (Journal.Impl_where { impl_id = impl.impl_id; clause_idx = idx })
                (Subst.predicate subst wc))
            impl.impl_generics.where_clauses
        in
        let all = norm_nodes @ extra_nodes @ subgoals in
        let result =
          Res.conj (List.map (fun (g : Trace.goal_node) -> g.result) all)
        in
        { Trace.cid; source = Trace.Cand_impl impl; cand_result = result; subgoals = all; failure = None }
  in
  finish_probe st snap node

(** Unify two trait refs, routing projection/rigid clashes through
    normalization.  Returns the normalization nodes generated — on both
    the success and failure paths, since the journal (and the trace)
    must account for every node evaluated before a mismatch. *)
and unify_trait_refs_norm st ~depth (a : Ty.trait_ref) (b : Ty.trait_ref) :
    (Trace.goal_node list, Trace.goal_node list * Journal.unify_failure) result =
  let manual_failure f =
    Unify.journal_attempt st.icx (Ty.Dynamic a) (Ty.Dynamic b) (Error f);
    f
  in
  if not (Path.equal a.trait b.trait) then
    Error ([], manual_failure (Journal.Head_mismatch (Ty.Dynamic a, Ty.Dynamic b)))
  else if List.length a.args <> List.length b.args then
    Error ([], manual_failure (Journal.Arity (Ty.Dynamic a, Ty.Dynamic b)))
  else
    let rec go acc xs ys =
      match (xs, ys) with
      | [], [] -> Ok (List.rev acc)
      | x :: xs, y :: ys -> (
          match (x, y) with
          | Ty.Lifetime _, Ty.Lifetime _ -> go acc xs ys
          | Ty.Ty tx, Ty.Ty ty -> (
              let nx = deep_normalize st ~depth tx in
              let ny = deep_normalize st ~depth ty in
              let acc = List.rev_append ny.norm_nodes (List.rev_append nx.norm_nodes acc) in
              match Unify.unify st.icx nx.norm_ty' ny.norm_ty' with
              | Ok () -> go acc xs ys
              | Error f -> Error (List.rev acc, f))
          | _ ->
              Error (List.rev acc, manual_failure (Journal.Arity (Ty.Dynamic a, Ty.Dynamic b))))
      | _ -> Error (List.rev acc, manual_failure (Journal.Arity (Ty.Dynamic a, Ty.Dynamic b)))
    in
    go [] a.args b.args

(* --- built-in candidates ------------------------------------------- *)

and builtin_candidates st ~goal ~depth (tp : Predicate.trait_pred) :
    (Trace.cand_node * Infer_ctx.bindings) list =
  let self = Infer_ctx.resolve st.icx tp.self_ty in
  if is_sized tp.trait_ref.trait then [ builtin_sized ~goal self ]
  else if is_fn_family tp.trait_ref.trait then begin
    match self with
    | Ty.FnPtr (inputs, _) | Ty.FnItem (_, inputs, _) ->
        [ builtin_fn st ~goal ~depth tp inputs ]
    | _ -> []
  end
  else if Path.name tp.trait_ref.trait = "Tuple" then begin
    match self with
    | Ty.Tuple _ | Ty.Unit ->
        let cid = Journal.fresh_id () in
        Jlog.cand_enter ~id:cid ~goal (Trace.Cand_builtin "tuple");
        [
          no_probe
            {
              Trace.cid;
              source = Trace.Cand_builtin "tuple";
              cand_result = Res.Yes;
              subgoals = [];
              failure = None;
            };
        ]
    | _ -> []
  end
  else []

and builtin_sized ~goal (self : Ty.t) : Trace.cand_node * Infer_ctx.bindings =
  let cid = Journal.fresh_id () in
  Jlog.cand_enter ~id:cid ~goal (Trace.Cand_builtin "sized");
  let result = match self with Ty.Dynamic _ -> Res.No | _ -> Res.Yes in
  no_probe
    { cid; source = Trace.Cand_builtin "sized"; cand_result = result; subgoals = []; failure = None }

(** [fn(A, B) -> R] implements [Fn<(A, B)>]; the trait's single type
    argument is the tupled inputs.  Projections in the expected argument
    tuple (e.g. [Fn<(<I as Iterator>::Item,)>]) are normalized first. *)
and builtin_fn st ~goal ~depth (tp : Predicate.trait_pred) (inputs : Ty.t list) :
    Trace.cand_node * Infer_ctx.bindings =
  let cid = Journal.fresh_id () in
  Jlog.cand_enter ~id:cid ~goal (Trace.Cand_builtin "fn-item");
  let snap = Infer_ctx.snapshot st.icx in
  let expected = Ty.tuple inputs in
  let norm_nodes, outcome =
    match tp.trait_ref.args with
    | [ Ty.Ty args_ty ] ->
        let n = deep_normalize st ~depth args_ty in
        (n.norm_nodes, Unify.unify st.icx n.norm_ty' expected)
    | [] -> ([], Ok ())
    | _ ->
        let r = Error (Journal.Arity (tp.self_ty, expected)) in
        Unify.journal_attempt st.icx tp.self_ty expected r;
        ([], r)
  in
  let sub_result =
    Res.conj (List.map (fun (g : Trace.goal_node) -> g.result) norm_nodes)
  in
  let node : Trace.cand_node =
    match outcome with
    | Ok () ->
        {
          cid;
          source = Trace.Cand_builtin "fn-item";
          cand_result = sub_result;
          subgoals = norm_nodes;
          failure = None;
        }
    | Error f ->
        {
          cid;
          source = Trace.Cand_builtin "fn-item";
          cand_result = Res.No;
          subgoals = norm_nodes;
          failure = Some f;
        }
  in
  finish_probe st snap node

(* --- projection predicates ----------------------------------------- *)

and solve_projection st ~gid ~depth ~prov pred (pp : Predicate.proj_pred) : Trace.goal_node =
  let proj = Infer_ctx.resolve_projection st.icx pp.projection in
  if not (head_known st.icx proj.self_ty) then leaf ~gid ~depth ~prov pred Res.Maybe
  else begin
    (* Impl candidates are evaluated first, matching their position in
       the candidate list (and hence the journal's event order). *)
    let impl_cands =
      Fast_reject.candidates st.program proj.proj_trait.trait (Unify.shallow st.icx proj.self_ty)
      |> List.map (fun impl -> eval_proj_impl_candidate st ~goal:gid ~depth impl proj pp)
    in
    (* Built-in: <fn-like as Fn<..>>::Output normalizes to the return. *)
    let builtin =
      if is_fn_family proj.proj_trait.trait && proj.assoc = "Output" then
        match Unify.shallow st.icx proj.self_ty with
        | Ty.FnPtr (_, ret) | Ty.FnItem (_, _, ret) ->
            Some (eval_proj_builtin st ~goal:gid ret pp)
        | _ -> None
      else None
    in
    Telemetry.add c_cand_impl (List.length impl_cands);
    Telemetry.add c_cand_builtin (if builtin = None then 0 else 1);
    Jlog.cand_assembled ~goal:gid ~param_env:0
      ~impls:(List.length impl_cands)
      ~builtin:(if builtin = None then 0 else 1);
    (* no param-env candidates here, so [select] commits a unique success *)
    select st ~gid ~depth ~prov pred (impl_cands @ Option.to_list builtin)
  end

and eval_proj_builtin st ~goal ret (pp : Predicate.proj_pred) :
    Trace.cand_node * Infer_ctx.bindings =
  let cid = Journal.fresh_id () in
  Jlog.cand_enter ~id:cid ~goal (Trace.Cand_builtin "fn-output");
  let snap = Infer_ctx.snapshot st.icx in
  let outcome = Unify.unify st.icx pp.term ret in
  let node : Trace.cand_node =
    match outcome with
    | Ok () ->
        { cid; source = Trace.Cand_builtin "fn-output"; cand_result = Res.Yes; subgoals = []; failure = None }
    | Error f ->
        { cid; source = Trace.Cand_builtin "fn-output"; cand_result = Res.No; subgoals = []; failure = Some f }
  in
  finish_probe st snap node

(** A projection candidate: the impl must (1) head-match the projection's
    self type and trait args, (2) satisfy its where-clauses, and (3) have
    its associated-type binding unify with the expected term — a failure
    at step (3) is rustc's E0271 "type mismatch resolving". *)
and eval_proj_impl_candidate st ~goal ~depth (impl : Decl.impl) (proj : Ty.projection)
    (pp : Predicate.proj_pred) : Trace.cand_node * Infer_ctx.bindings =
  let cid = Journal.fresh_id () in
  Jlog.cand_enter ~id:cid ~goal (Trace.Cand_impl impl);
  let snap = Infer_ctx.snapshot st.icx in
  let subst = Infer_ctx.instantiate_generics st.icx impl.impl_generics in
  let head_self = Subst.ty subst impl.impl_self in
  let head_trait = Subst.trait_ref subst impl.impl_trait in
  let n_self = deep_normalize st ~depth proj.self_ty in
  let head_outcome =
    match Unify.unify st.icx n_self.norm_ty' head_self with
    | Error f -> Error ([], f)
    | Ok () -> unify_trait_refs_norm st ~depth proj.proj_trait head_trait
  in
  let node =
    match head_outcome with
    | Error (extra, f) ->
        {
          Trace.cid;
          source = Trace.Cand_impl impl;
          cand_result = Res.No;
          subgoals = n_self.norm_nodes @ extra;
          failure = Some f;
        }
    | Ok extra -> (
        match binding_of_impl st impl subst proj.assoc with
        | None ->
            let f = Journal.Projection_ambiguous (proj, pp.term) in
            Unify.journal_attempt st.icx (Ty.Proj proj) pp.term (Error f);
            {
              Trace.cid;
              source = Trace.Cand_impl impl;
              cand_result = Res.No;
              subgoals = n_self.norm_nodes @ extra;
              failure = Some f;
            }
        | Some binding_ty ->
            let subgoals =
              List.mapi
                (fun idx wc ->
                  solve_goal st ~depth:(depth + 1)
                    (Journal.Impl_where { impl_id = impl.impl_id; clause_idx = idx })
                    (Subst.predicate subst wc))
                impl.impl_generics.where_clauses
            in
            let n_binding = deep_normalize st ~depth:(depth + 1) binding_ty in
            let term_outcome = Unify.unify st.icx pp.term n_binding.norm_ty' in
            let all = n_self.norm_nodes @ extra @ subgoals @ n_binding.norm_nodes in
            let sub_result = Res.conj (List.map (fun (g : Trace.goal_node) -> g.result) all) in
            (match term_outcome with
            | Ok () ->
                {
                  Trace.cid;
                  source = Trace.Cand_impl impl;
                  cand_result = sub_result;
                  subgoals = all;
                  failure = None;
                }
            | Error f ->
                {
                  Trace.cid;
                  source = Trace.Cand_impl impl;
                  cand_result = Res.No;
                  subgoals = all;
                  failure = Some f;
                }))
  in
  finish_probe st snap node

(** Look up the impl's binding for [assoc], falling back to the trait's
    declared default. *)
and binding_of_impl st (impl : Decl.impl) subst assoc : Ty.t option =
  match
    List.find_opt (fun (b : Decl.assoc_ty_binding) -> b.bind_name = assoc) impl.impl_assocs
  with
  | Some b -> Some (Subst.ty subst b.bind_ty)
  | None -> (
      match Program.find_trait st.program impl.impl_trait.trait with
      | None -> None
      | Some tr -> (
          match
            List.find_opt (fun (a : Decl.assoc_ty_decl) -> a.assoc_name = assoc) tr.tr_assocs
          with
          | Some { assoc_default = Some d; _ } ->
              (* default may mention Self and the trait's params *)
              let s = Subst.add_ty "Self" (Subst.ty subst impl.impl_self) Subst.empty in
              Some (Subst.ty s (Subst.ty subst d))
          | _ -> None))

(* --- normalization -------------------------------------------------- *)

and deep_normalize st ~depth (ty : Ty.t) : norm_result =
  let nodes = ref [] in
  (* Sharing-preserving like {!Infer_ctx.resolve}: a type with no
     projection and nothing bound comes back physically.  Children are
     visited in the order the journal has always seen them: a fn
     type's return before its arguments. *)
  let rec go depth ty =
    let ty = Infer_ctx.resolve st.icx ty in
    match (ty : Ty.t) with
    | Unit | Bool | Int | Uint | Float | Str | Param _ | Infer _ -> ty
    | Ref (r, t) ->
        let t' = go depth t in
        if t' == t then ty else Ref (r, t')
    | RefMut (r, t) ->
        let t' = go depth t in
        if t' == t then ty else RefMut (r, t')
    | Ctor (p, args) ->
        let args' = Ty.map_sharing (go_arg depth) args in
        if args' == args then ty else Ctor (p, args')
    | Tuple ts ->
        let ts' = Ty.map_sharing (go depth) ts in
        if ts' == ts then ty else Tuple ts'
    | FnPtr (args, ret) ->
        let ret' = go depth ret in
        let args' = Ty.map_sharing (go depth) args in
        if args' == args && ret' == ret then ty else FnPtr (args', ret')
    | FnItem (p, args, ret) ->
        let ret' = go depth ret in
        let args' = Ty.map_sharing (go depth) args in
        if args' == args && ret' == ret then ty else FnItem (p, args', ret')
    | Dynamic tr ->
        let args' = Ty.map_sharing (go_arg depth) tr.args in
        if args' == tr.args then ty else Dynamic { tr with args = args' }
    | Proj p0 ->
        let self_ty = go depth p0.self_ty in
        let p = if self_ty == p0.self_ty then p0 else { p0 with self_ty } in
        let unchanged () = if p == p0 then ty else Proj p in
        if depth > st.cfg.depth_limit then begin
          Telemetry.incr c_overflow;
          let fresh = Infer_ctx.fresh st.icx in
          let gid = Journal.fresh_id () in
          let pred = Predicate.NormalizesTo (p, fresh) in
          Jlog.goal_enter ~id:gid ~depth Journal.Normalization pred;
          Jlog.overflow ~id:gid ~depth_limited:true;
          let node =
            leaf ~gid ~depth ~prov:Journal.Normalization
              ~flags:[ Journal.Stateful; Journal.Depth_limit; Journal.Overflow ]
              pred Res.No
          in
          Jlog.goal_exit node;
          nodes := !nodes @ [ node ];
          unchanged ()
        end
        else begin
          let n = normalize_proj st ~depth ~prov:Journal.Normalization p in
          nodes := !nodes @ [ n.norm_node ];
          match n.norm_ty with Some t -> go (depth + 1) t | None -> unchanged ()
        end
  and go_arg depth (a : Ty.arg) : Ty.arg =
    match a with
    | Ty t ->
        let t' = go depth t in
        if t' == t then a else Ty t'
    | Lifetime _ -> a
  in
  let norm_ty' = go depth ty in
  { norm_ty'; norm_nodes = !nodes }

(** Normalize one projection.  When [id] is supplied the caller
    ({!solve_goal} on a [NormalizesTo] predicate) already opened the
    journal goal frame and will close it with the wrapped node; without
    it (the {!deep_normalize} path) this function owns the frame. *)
and normalize_proj st ?id ~depth ~prov (proj : Ty.projection) : proj_norm =
  Telemetry.incr c_normalize;
  let fresh = Infer_ctx.fresh st.icx in
  let pred = Predicate.NormalizesTo (proj, fresh) in
  let gid, ambient =
    match id with Some g -> (g, true) | None -> (Journal.fresh_id (), false)
  in
  if not ambient then Jlog.goal_enter ~id:gid ~depth prov pred;
  let finish (out : proj_norm) =
    Jlog.norm_resolved ~id:gid out.norm_ty;
    if not ambient then Jlog.goal_exit out.norm_node;
    out
  in
  if not (head_known st.icx proj.self_ty) then
    finish
      { norm_ty = None; norm_node = leaf ~gid ~depth ~prov ~flags:[ Journal.Stateful ] pred Res.Maybe }
  else if cycles st pred then begin
    Telemetry.incr c_overflow;
    Jlog.cycle ~id:gid pred;
    Jlog.overflow ~id:gid ~depth_limited:false;
    finish
      {
        norm_ty = None;
        norm_node = leaf ~gid ~depth ~prov ~flags:[ Journal.Stateful; Journal.Overflow ] pred Res.No;
      }
  end
  else begin
    st.stack <- pred :: st.stack;
    (* Built-in Fn::Output *)
    let result =
      if is_fn_family proj.proj_trait.trait && proj.assoc = "Output" then
        match Unify.shallow st.icx proj.self_ty with
        | Ty.FnPtr (_, ret) | Ty.FnItem (_, _, ret) ->
            let cid = Journal.fresh_id () in
            Jlog.cand_enter ~id:cid ~goal:gid (Trace.Cand_builtin "fn-output");
            let cand : Trace.cand_node =
              {
                cid;
                source = Trace.Cand_builtin "fn-output";
                cand_result = Res.Yes;
                subgoals = [];
                failure = None;
              }
            in
            Jlog.cand_exit cand;
            Some
              {
                norm_ty = Some ret;
                norm_node =
                  {
                    gid;
                    pred;
                    result = Res.Yes;
                    candidates = [ cand ];
                    depth;
                    provenance = prov;
                    flags = [ Journal.Stateful ];
                  };
              }
        | _ -> None
      else None
    in
    let out =
      match result with
      | Some r -> r
      | None -> normalize_via_impls st ~gid ~depth ~prov pred proj
    in
    st.stack <- List.tl st.stack;
    finish out
  end

and normalize_via_impls st ~gid ~depth ~prov pred (proj : Ty.projection) : proj_norm =
  let impls =
    Fast_reject.candidates st.program proj.proj_trait.trait (Unify.shallow st.icx proj.self_ty)
  in
  (* Probe which impls head-match.  Unlike {!select}'s candidates, these
     probes cover only the head match: the winner's where-clauses are
     solved once, after the commit, as the node's subtree.  Committing
     re-unifies the heads under the probe's substitution (rollback
     unbinds the variables it allocated but leaves them allocated), and
     those unifications are the candidate frame's journaled head
     match. *)
  let probe impl =
    let snap = Infer_ctx.snapshot st.icx in
    let subst = Infer_ctx.instantiate_generics st.icx impl.Decl.impl_generics in
    let ok =
      (match Unify.unify st.icx proj.self_ty (Subst.ty subst impl.impl_self) with
      | Ok () ->
          Result.is_ok
            (Unify.unify_trait_refs st.icx proj.proj_trait
               (Subst.trait_ref subst impl.impl_trait))
      | Error _ -> false)
    in
    Infer_ctx.rollback_to st.icx snap;
    if ok then Some (impl, subst) else None
  in
  match List.filter_map probe impls with
  | [] ->
      {
        norm_ty = None;
        norm_node =
          {
            gid;
            pred;
            result = Res.No;
            candidates = [];
            depth;
            provenance = prov;
            flags = [ Journal.Stateful ];
          };
      }
  | _ :: _ :: _ as matching ->
      (* more than one possible impl: stuck until inference decides *)
      Telemetry.incr c_ambiguous;
      Jlog.ambiguity ~id:gid ~succeeded:(List.length matching);
      {
        norm_ty = None;
        norm_node =
          leaf ~gid ~depth ~prov ~flags:[ Journal.Stateful; Journal.Ambiguous_selection ] pred
            Res.Maybe;
      }
  | [ (impl, subst) ] ->
      (* Commit the unique impl: unify heads for real under the probe's
         substitution, then solve its where-clauses as the node's
         subtree. *)
      let cid = Journal.fresh_id () in
      Jlog.cand_enter ~id:cid ~goal:gid (Trace.Cand_impl impl);
      let _ = Unify.unify st.icx proj.self_ty (Subst.ty subst impl.impl_self) in
      let _ =
        Unify.unify_trait_refs st.icx proj.proj_trait (Subst.trait_ref subst impl.impl_trait)
      in
      let subgoals =
        List.mapi
          (fun idx wc ->
            solve_goal st ~depth:(depth + 1)
              (Journal.Impl_where { impl_id = impl.impl_id; clause_idx = idx })
              (Subst.predicate subst wc))
          impl.impl_generics.where_clauses
      in
      let sub_result = Res.conj (List.map (fun (g : Trace.goal_node) -> g.result) subgoals) in
      let binding = binding_of_impl st impl subst proj.assoc in
      let cand : Trace.cand_node =
        {
          cid;
          source = Trace.Cand_impl impl;
          cand_result = sub_result;
          subgoals;
          failure = None;
        }
      in
      Jlog.cand_exit cand;
      let node : Trace.goal_node =
        {
          gid;
          pred;
          result = (if binding = None then Res.No else sub_result);
          candidates = [ cand ];
          depth;
          provenance = prov;
          flags = [ Journal.Stateful ];
        }
      in
      { norm_ty = binding; norm_node = node }

(* ------------------------------------------------------------------ *)

(** Solve a single predicate as a root goal. *)
let solve st ?(origin = "this expression") ?(span = Span.dummy) pred =
  let tok = Telemetry.begin_ sp_root in
  let node = solve_goal st ~depth:0 (Journal.Root { origin; span }) pred in
  Telemetry.end_ sp_root tok;
  node

(** Deep-normalize a type outside any goal (depth 0): the normalized type,
    physically the input when it has no projection and nothing bound,
    and the [NormalizesTo] nodes evaluated for it. *)
let normalize st ty =
  let n = deep_normalize st ~depth:0 ty in
  (n.norm_ty', n.norm_nodes)

(** Speculative probing (§4): method resolution asks the solver a
    sequence of *soft* predicates — "does the receiver implement
    [ToString]?  If not, [CustomToString]?" — committing only the first
    success.  All predicates evaluated before (and including) the chosen
    one are returned; the failing ones are flagged [Speculative] so the
    extraction layer can hide them, exactly the heuristic the paper
    describes ("Argus uses a heuristic to reverse-engineer the predicates
    evaluated in a program and attempts to show as few as possible").

    Returns the trace nodes in evaluation order and the index of the
    committed predicate, if any. *)
let solve_probe st ?(origin = "method resolution") ?(span = Span.dummy)
    (alternatives : Predicate.t list) : Trace.goal_node list * int option =
  Jlog.probe_begin ~origin ~alternatives:(List.length alternatives);
  let rec go idx acc = function
    | [] ->
        Jlog.probe_end ~committed:None;
        (List.rev acc, None)
    | pred :: rest ->
        Telemetry.incr c_probe_roots;
        let snap = Infer_ctx.snapshot st.icx in
        let node = solve_goal st ~depth:0 (Journal.Root { origin; span }) pred in
        if Res.is_yes node.result then begin
          Infer_ctx.commit st.icx snap;
          Jlog.probe_end ~committed:(Some idx);
          (List.rev (node :: acc), Some idx)
        end
        else begin
          Infer_ctx.rollback_to st.icx snap;
          (* the flag is stamped after the goal already exited; replay
             applies it post-hoc, exactly as we do here *)
          Jlog.goal_flag ~id:node.gid Journal.Speculative;
          let node = { node with flags = Journal.Speculative :: node.flags } in
          go (idx + 1) (node :: acc) rest
        end
  in
  go 0 [] alternatives

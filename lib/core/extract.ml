(** Extraction: turning raw solver traces into the idealized tree.

    §4 of the paper identifies three gaps between the trait solver's
    output and "the beautiful AND/OR tree" of Fig. 5, and this module
    bridges each of them:

    1. {b Predicate snapshots}: the fixpoint re-evaluates ambiguous
       predicates, so a goal has several trace trees over time.  We apply
       the *implication heuristic*: an earlier snapshot is dropped when a
       later snapshot's predicate is an instance of it (the earlier one
       was just a less-inferred version of the same obligation).
    2. {b Speculative predicates}: probing predicates from method
       resolution look like real obligations; failed speculative subtrees
       whose sibling succeeded are dropped.
    3. {b Stateful nodes}: [NormalizesTo] predicates behave like function
       calls — the node is marked stateful so views can collapse it to its
       captured value rather than showing a misleading subtree. *)

open Trait_lang

let sp_extract = Telemetry.span "extract"
let c_pruned = Telemetry.counter "extract.speculative_pruned"
let c_deduped = Telemetry.counter "extract.snapshots_deduped"

(** One-sided matching: does [general] become [specific] under some
    assignment of [general]'s inference variables?  (The implication
    heuristic: [specific] implies [general] as an obligation snapshot.) *)
let generalizes ~(general : Predicate.t) ~(specific : Predicate.t) : bool =
  let bindings : (int, Ty.t) Hashtbl.t = Hashtbl.create 8 in
  let rec m_ty (g : Ty.t) (s : Ty.t) =
    match (g, s) with
    | Ty.Infer i, _ -> (
        match Hashtbl.find_opt bindings i with
        | Some prev -> Ty.equal prev s
        | None ->
            Hashtbl.add bindings i s;
            true)
    | Ty.Unit, Ty.Unit
    | Ty.Bool, Ty.Bool
    | Ty.Int, Ty.Int
    | Ty.Uint, Ty.Uint
    | Ty.Float, Ty.Float
    | Ty.Str, Ty.Str ->
        true
    | Ty.Param a, Ty.Param b -> String.equal a b
    | Ty.Ref (_, a), Ty.Ref (_, b) | Ty.RefMut (_, a), Ty.RefMut (_, b) -> m_ty a b
    | Ty.Ctor (p1, a1), Ty.Ctor (p2, a2) -> Path.equal p1 p2 && m_args a1 a2
    | Ty.Tuple a, Ty.Tuple b -> List.length a = List.length b && List.for_all2 m_ty a b
    | Ty.FnPtr (a1, r1), Ty.FnPtr (a2, r2) ->
        List.length a1 = List.length a2 && List.for_all2 m_ty a1 a2 && m_ty r1 r2
    | Ty.FnItem (p1, a1, r1), Ty.FnItem (p2, a2, r2) ->
        Path.equal p1 p2
        && List.length a1 = List.length a2
        && List.for_all2 m_ty a1 a2 && m_ty r1 r2
    | Ty.Dynamic t1, Ty.Dynamic t2 -> Path.equal t1.trait t2.trait && m_args t1.args t2.args
    | Ty.Proj p1, Ty.Proj p2 -> m_proj p1 p2
    | _ -> false
  and m_args a b =
    List.length a = List.length b
    && List.for_all2
         (fun x y ->
           match (x, y) with
           | Ty.Ty tx, Ty.Ty ty -> m_ty tx ty
           | Ty.Lifetime _, Ty.Lifetime _ -> true
           | _ -> false)
         a b
  and m_proj (p1 : Ty.projection) (p2 : Ty.projection) =
    Path.equal p1.proj_trait.trait p2.proj_trait.trait
    && String.equal p1.assoc p2.assoc
    && m_ty p1.self_ty p2.self_ty
    && m_args p1.proj_trait.args p2.proj_trait.args
  in
  match (general, specific) with
  | Predicate.Trait g, Predicate.Trait s ->
      Path.equal g.trait_ref.trait s.trait_ref.trait
      && m_ty g.self_ty s.self_ty
      && m_args g.trait_ref.args s.trait_ref.args
  | Predicate.Projection g, Predicate.Projection s ->
      m_proj g.projection s.projection && m_ty g.term s.term
  | g, s -> Predicate.equal g s

(** The implication heuristic over a goal's evolution: keep an attempt
    only if no *later* attempt is a more-instantiated snapshot of it. *)
let dedup_attempts (attempts : Solver.Trace.goal_node list) : Solver.Trace.goal_node list =
  let rec keep = function
    | [] -> []
    | (a : Solver.Trace.goal_node) :: rest ->
        if
          List.exists
            (fun (later : Solver.Trace.goal_node) ->
              generalizes ~general:a.pred ~specific:later.pred)
            rest
        then begin
          Telemetry.incr c_deduped;
          keep rest
        end
        else a :: keep rest
  in
  keep attempts

(* ------------------------------------------------------------------ *)
(* Lowering a trace tree into the arena. *)

let goal_info_of (g : Solver.Trace.goal_node) : Proof_tree.goal_info =
  {
    pred = g.pred;
    result = g.result;
    provenance = g.provenance;
    is_overflow = Solver.Trace.is_overflow g;
    is_stateful = Solver.Trace.has_flag Journal.Stateful g;
    is_user_visible = Predicate.is_user_visible g.pred;
    depth = g.depth;
    trace_id = g.gid;
  }

(** Drop failed speculative siblings when another candidate/goal at the
    same level succeeded (§4: "Argus uses a heuristic [...] and attempts
    to show as few as possible"). *)
let prune_speculative (goals : Solver.Trace.goal_node list) : Solver.Trace.goal_node list =
  let any_success =
    List.exists (fun (g : Solver.Trace.goal_node) -> Solver.Res.is_yes g.result) goals
  in
  if not any_success then goals
  else
    List.filter
      (fun (g : Solver.Trace.goal_node) ->
        let keep =
          Solver.Res.is_yes g.result
          || not (Solver.Trace.has_flag Journal.Speculative g)
        in
        if not keep then Telemetry.incr c_pruned;
        keep)
      goals

let of_trace (trace : Solver.Trace.goal_node) : Proof_tree.t =
  let tok = Telemetry.begin_ sp_extract in
  let b = Proof_tree.builder () in
  let rec add_goal parent (g : Solver.Trace.goal_node) =
    Proof_tree.add_node b ~parent (Proof_tree.Goal (goal_info_of g)) (fun id ->
        List.map (add_cand (Some id)) g.candidates)
  and add_cand parent (c : Solver.Trace.cand_node) =
    Proof_tree.add_node b ~parent
      (Proof_tree.Cand
         {
           source = c.source;
           cand_result = c.cand_result;
           failure = c.failure;
           cand_trace_id = c.cid;
         })
      (fun id -> List.map (add_goal (Some id)) (prune_speculative c.subgoals))
  in
  let root = add_goal None trace in
  let tree = Proof_tree.build b ~root in
  Telemetry.end_ sp_extract tok;
  tree

(** Extract the final idealized tree for a goal report, after snapshot
    dedup.  The last surviving attempt is the authoritative tree. *)
let of_report (r : Solver.Obligations.goal_report) : Proof_tree.t =
  let survivors = dedup_attempts r.attempts in
  let final =
    match List.rev survivors with last :: _ -> last | [] -> r.final
  in
  of_trace final

(** Extract the trees worth showing from a method-resolution probe
    ({!Solver.Solve.solve_probe}): when one alternative succeeded, the
    failed speculative attempts are dropped — they were never real
    obligations (§4). *)
let of_probe (nodes : Solver.Trace.goal_node list) : Proof_tree.t list =
  List.map of_trace (prune_speculative nodes)

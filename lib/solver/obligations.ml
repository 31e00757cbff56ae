(** The obligation engine: fixpoint solving of a program's root goals.

    §4 of the paper: "Solving predicates happens in a fixpoint; ambiguous
    predicates remain in the trait solver queue until they are proved true
    or false, or until inference finishes, at which point all ambiguous
    predicates become failures.  [...] predicates re-entered into the trait
    solving queue are represented as new predicates.  This means that Argus
    sees all snapshots of a predicate's evolution."

    We reproduce that reality: each goal's [attempts] list holds every
    round's trace tree (a "snapshot of the predicate's evolution"), and the
    extraction layer applies the implication heuristic to drop the earlier,
    more general snapshots. *)

open Trait_lang

let sp_fixpoint = Telemetry.span "solver.fixpoint"
let c_rounds = Telemetry.counter "obligations.rounds"
let c_pending_hwm = Telemetry.counter "obligations.pending.hwm"

type status =
  | Proved  (** final result yes *)
  | Disproved  (** final result no — a hard trait error *)
  | Ambiguous  (** still maybe when inference finished — also an error *)

type goal_report = {
  goal : Program.goal;
  attempts : Trace.goal_node list;  (** one tree per solving round, oldest first *)
  final : Trace.goal_node;
  status : status;
}

type report = {
  reports : goal_report list;
  rounds : int;  (** fixpoint iterations used *)
  solver : Solve.t;  (** retains the inference context for resolution *)
}

let status_of_result : Res.t -> status = function
  | Res.Yes -> Proved
  | Res.No -> Disproved
  | Res.Maybe -> Ambiguous

(** Did this round make inference progress?  Detected by watching the
    number of bound inference variables grow. *)
let bound_count (icx : Infer_ctx.t) =
  let n = ref 0 in
  for i = 0 to Infer_ctx.num_vars icx - 1 do
    if Infer_ctx.probe icx i <> None then incr n
  done;
  !n

(** Solve [goals] to fixpoint on an existing solver state — the reusable
    core of {!solve_program}, also driven by the type checker, whose
    obligations are emitted incrementally during inference (§4). *)
let solve_goals ?(max_rounds = 8) (st : Solve.t) (goals : Program.goal list) :
    goal_report list * int =
  (* pending: goals not yet definitively answered *)
  let attempts = Hashtbl.create 8 in
  let finals : (int, Trace.goal_node) Hashtbl.t = Hashtbl.create 8 in
  let record i node =
    Hashtbl.replace attempts i (node :: Option.value ~default:[] (Hashtbl.find_opt attempts i))
  in
  let pending = ref (List.mapi (fun i g -> (i, g)) goals) in
  let rounds = ref 0 in
  let continue_ = ref (!pending <> []) in
  let tok = Telemetry.begin_ sp_fixpoint in
  while !continue_ do
    incr rounds;
    Telemetry.incr c_rounds;
    Telemetry.record_max c_pending_hwm (List.length !pending);
    let before = bound_count st.icx in
    let still_pending = ref [] in
    List.iter
      (fun (i, (g : Program.goal)) ->
        let node = Solve.solve st ~origin:g.goal_origin ~span:g.goal_span g.goal_pred in
        record i node;
        Hashtbl.replace finals i node;
        match node.result with
        | Res.Yes | Res.No -> ()
        | Res.Maybe -> still_pending := (i, g) :: !still_pending)
      !pending;
    let after = bound_count st.icx in
    pending := List.rev !still_pending;
    (* Stop when everything is answered, no progress was made, or we hit
       the round limit. *)
    continue_ := !pending <> [] && after > before && !rounds < max_rounds
  done;
  Telemetry.end_ sp_fixpoint tok;
  let reports =
    List.mapi
      (fun i (g : Program.goal) ->
        let att = List.rev (Option.value ~default:[] (Hashtbl.find_opt attempts i)) in
        let final =
          match Hashtbl.find_opt finals i with
          | Some f -> f
          | None -> assert false
        in
        { goal = g; attempts = att; final; status = status_of_result final.result })
      goals
  in
  (reports, !rounds)

(** Solve all root goals of [program] to fixpoint.

    [env] provides in-scope where-clauses (normally empty at the top
    level).  [max_rounds] bounds the fixpoint; ambiguity that survives it
    is reported as [Ambiguous].  The run's evaluation cache is its own:
    created here, and unreachable once the report is. *)
let solve_program ?(cfg = Solve.default_config) ?(env = []) ?(max_rounds = 8)
    (program : Program.t) : report =
  let st = Solve.create ~cfg ~env ~cache:(Eval_cache.create ()) program in
  let reports, rounds = solve_goals ~max_rounds st (Program.goals program) in
  { reports; rounds; solver = st }

let errors (r : report) =
  List.filter (fun g -> g.status <> Proved) r.reports

let all_proved (r : report) = errors r = []

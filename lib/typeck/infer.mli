(** The expression-level type checker — the process that *generates*
    trait obligations, reproducing §4's interleaving: generic calls
    instantiate fresh inference variables and emit their where-clauses as
    obligations; method calls speculatively probe every trait declaring
    the method; the collected obligations then run to fixpoint through
    {!Solver.Obligations}. *)

open Trait_lang

type type_error = { te_span : Span.t; te_message : string }

(** A recorded method resolution (§4's speculative predicates). *)
type probe = {
  p_span : Span.t;
  p_method : string;
  p_recv_ty : Ty.t;  (** resolved at the end of checking *)
  p_nodes : Solver.Trace.goal_node list;  (** one per probed trait *)
  p_chosen : int option;  (** index of the committed alternative *)
}

type fn_report = {
  fr_fn : Decl.fndecl;
  fr_locals : (string * Ty.t) list;  (** let-bound locals, resolved *)
  fr_type_errors : type_error list;
  fr_obligations : Solver.Obligations.goal_report list;
  fr_probes : probe list;
  fr_rounds : int;  (** fixpoint rounds the obligations needed *)
}

type report = { fr_fns : fn_report list }

val fn_ok : fn_report -> bool
val report_ok : report -> bool

(** Type-check one function body (params must be named).  [cache] is the
    pass's evaluation cache; by default the check gets its own. *)
val check_fn :
  ?cfg:Solver.Solve.config -> ?cache:Solver.Eval_cache.t -> Program.t -> Decl.fndecl -> fn_report

(** Type-check every function declared with a body, with one evaluation
    cache for the pass. *)
val check_program : ?cfg:Solver.Solve.config -> Program.t -> report

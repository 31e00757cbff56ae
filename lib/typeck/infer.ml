(** The expression-level type checker: the process that *generates* trait
    obligations.

    §4 of the paper: "trait solving and type checking are interleaving
    processes" — a predicate is born when type checking elaborates a call
    or selects a method, usually while types are still full of inference
    variables.  This module reproduces that interleaving over the
    {!Trait_lang.Expr} language:

    - calling a generic function instantiates its generics with fresh
      inference variables, unifies argument types, and {b emits the
      function's where-clauses as obligations} whose origin points at the
      call;
    - a method call {b probes} every trait declaring the method through
      {!Solver.Solve.solve_probe} — the paper's speculative predicates —
      committing the first success and recording the failures;
    - after the body, the collected obligations run to fixpoint through
      the same {!Solver.Obligations} engine the [goal] declarations use,
      so ambiguity, snapshots, and extraction behave identically. *)

open Trait_lang

let sp_check_fn = Telemetry.span "typeck.check_fn"
let c_probes = Telemetry.counter "typeck.probes"
let c_obligations = Telemetry.counter "typeck.obligations"

type type_error = { te_span : Span.t; te_message : string }

(** A recorded method resolution: where it happened, the probed
    alternatives' trace trees, and the committed index if any. *)
type probe = {
  p_span : Span.t;
  p_method : string;
  p_recv_ty : Ty.t;  (** resolved at the end of checking *)
  p_nodes : Solver.Trace.goal_node list;
  p_chosen : int option;
}

type fn_report = {
  fr_fn : Decl.fndecl;
  fr_locals : (string * Ty.t) list;  (** let-bound locals, resolved *)
  fr_type_errors : type_error list;
  fr_obligations : Solver.Obligations.goal_report list;
  fr_probes : probe list;
  fr_rounds : int;
}

type report = { fr_fns : fn_report list }

(** Did the function check cleanly? *)
let fn_ok (fr : fn_report) =
  fr.fr_type_errors = []
  && List.for_all
       (fun (g : Solver.Obligations.goal_report) -> g.status = Solver.Obligations.Proved)
       fr.fr_obligations
  && List.for_all (fun p -> p.p_chosen <> None) fr.fr_probes

let report_ok (r : report) = List.for_all fn_ok r.fr_fns

(* ------------------------------------------------------------------ *)

type ctx = {
  program : Program.t;
  st : Solver.Solve.t;
  mutable locals : (string * Ty.t) list;  (** innermost binding first *)
  mutable errors : type_error list;
  mutable goals : Program.goal list;  (** emitted obligations, reversed *)
  mutable probes : probe list;
}

let error cx span fmt =
  Printf.ksprintf
    (fun m -> cx.errors <- { te_span = span; te_message = m } :: cx.errors)
    fmt

let emit cx pred ~origin ~span =
  Telemetry.incr c_obligations;
  cx.goals <- { Program.goal_pred = pred; goal_span = span; goal_origin = origin } :: cx.goals

(** Unify, reporting a type error (rather than failing) on mismatch. *)
let unify_or_error cx span ~what expected actual =
  match Solver.Unify.unify cx.st.icx expected actual with
  | Ok () -> ()
  | Error f ->
      error cx span "mismatched types in %s: %s" what (Journal.failure_to_string f)

(** Instantiate a declaration's generics and emit its where-clauses. *)
let instantiate_and_obligate cx (g : Decl.generics) ~origin ~span : Subst.t =
  let subst = Solver.Infer_ctx.instantiate_generics cx.st.icx g in
  List.iter (fun wc -> emit cx (Subst.predicate subst wc) ~origin ~span) g.where_clauses;
  subst

(* ------------------------------------------------------------------ *)

let rec infer cx (e : Expr.t) : Ty.t =
  match e with
  | Expr.Lit_int _ -> Ty.Int
  | Expr.Lit_str _ -> Ty.Str
  | Expr.Lit_bool _ -> Ty.Bool
  | Expr.Lit_unit _ -> Ty.Unit
  | Expr.Tuple_expr (es, _) -> Ty.tuple (List.map (infer cx) es)
  | Expr.Var (name, span) -> (
      match List.assoc_opt name cx.locals with
      | Some ty -> ty
      | None ->
          error cx span "cannot find variable `%s` in this scope" name;
          Solver.Infer_ctx.fresh_ty cx.st.icx)
  | Expr.Ctor (path, args, span) -> (
      match Program.find_type cx.program path with
      | None ->
          error cx span "unknown struct `%s`" (Path.to_string path);
          Solver.Infer_ctx.fresh_ty cx.st.icx
      | Some td ->
          (* constructor rule: one value argument per type parameter, so
             [Wrapper(x)] has type [Wrapper<typeof x>]; unit structs take
             none.  (Struct bodies are opaque in L_TRAIT.) *)
          let params = td.ty_generics.ty_params in
          let subst =
            instantiate_and_obligate cx td.ty_generics
              ~origin:(Expr.describe e) ~span
          in
          let expected = List.length params in
          let got = List.length args in
          if got <> 0 && got <> expected then
            error cx span "`%s` expects %d constructor argument%s but %d were supplied"
              (Path.name path) expected
              (if expected = 1 then "" else "s")
              got
          else if got = expected then
            List.iter2
              (fun p a ->
                let arg_ty = infer cx a in
                unify_or_error cx (Expr.span_of a) ~what:"constructor argument"
                  (Subst.ty subst (Ty.Param p)) arg_ty)
              params args
          else ();
          Ty.ctor path (List.map (fun p -> Subst.ty subst (Ty.Param p)) params))
  | Expr.Fn_ref (path, span) -> (
      match Program.find_fn cx.program path with
      | None ->
          error cx span "unknown function `%s`" (Path.to_string path);
          Solver.Infer_ctx.fresh_ty cx.st.icx
      | Some fd ->
          let subst =
            instantiate_and_obligate cx fd.fn_generics ~origin:(Expr.describe e) ~span
          in
          Ty.FnItem
            (path, List.map (Subst.ty subst) fd.fn_inputs, Subst.ty subst fd.fn_output))
  | Expr.Call (path, args, span) -> (
      match Program.find_fn cx.program path with
      | None ->
          error cx span "unknown function `%s`" (Path.to_string path);
          Solver.Infer_ctx.fresh_ty cx.st.icx
      | Some fd ->
          let origin = Expr.describe e in
          let subst = instantiate_and_obligate cx fd.fn_generics ~origin ~span in
          let inputs = List.map (Subst.ty subst) fd.fn_inputs in
          if List.length args <> List.length inputs then begin
            error cx span "`%s` takes %d argument%s but %d were supplied" (Path.name path)
              (List.length inputs)
              (if List.length inputs = 1 then "" else "s")
              (List.length args);
            Subst.ty subst fd.fn_output
          end
          else begin
            List.iter2
              (fun input a ->
                let arg_ty = infer cx a in
                unify_or_error cx (Expr.span_of a) ~what:"function argument" input arg_ty)
              inputs args;
            Subst.ty subst fd.fn_output
          end)
  | Expr.Method (recv, m, args, span) -> infer_method cx e recv m args span

(** Method resolution via speculative probing (§4). *)
and infer_method cx whole recv m args span : Ty.t =
  let recv_ty = infer cx recv in
  (* candidate traits: those declaring a method named [m], in order *)
  let candidates =
    List.filter
      (fun (tr : Decl.trdecl) ->
        List.exists (fun (ms : Decl.method_sig) -> ms.m_name = m) tr.tr_methods)
      (Program.traits cx.program)
  in
  if candidates = [] then begin
    error cx span "no trait in scope declares a method named `%s`" m;
    Solver.Infer_ctx.fresh_ty cx.st.icx
  end
  else begin
    (* one speculative predicate per candidate trait, each with its own
       fresh instantiation of the trait's generics *)
    let alternatives =
      List.map
        (fun (tr : Decl.trdecl) ->
          let subst =
            Solver.Infer_ctx.instantiate_generics cx.st.icx tr.tr_generics
          in
          let args =
            List.map
              (fun p -> Ty.Ty (Subst.ty subst (Ty.Param p)))
              tr.tr_generics.ty_params
          in
          ( tr,
            subst,
            Predicate.Trait
              { self_ty = recv_ty; trait_ref = { Ty.trait = tr.tr_path; args } } ))
        candidates
    in
    let nodes, chosen =
      Solver.Solve.solve_probe cx.st ~origin:(Expr.describe whole) ~span
        (List.map (fun (_, _, p) -> p) alternatives)
    in
    Telemetry.incr c_probes;
    cx.probes <-
      { p_span = span; p_method = m; p_recv_ty = recv_ty; p_nodes = nodes; p_chosen = chosen }
      :: cx.probes;
    match chosen with
    | None ->
        error cx span "no method `%s` found for this receiver (no candidate trait applies)" m;
        Solver.Infer_ctx.fresh_ty cx.st.icx
    | Some idx ->
        let tr, subst, _ = List.nth alternatives idx in
        let ms =
          List.find (fun (ms : Decl.method_sig) -> ms.m_name = m) tr.tr_methods
        in
        let subst = Subst.add_ty "Self" recv_ty subst in
        (* instantiate the method's own generics and emit its
           where-clauses as obligations at this call site *)
        let msubst = Solver.Infer_ctx.instantiate_generics cx.st.icx ms.m_generics in
        let subst =
          List.fold_left
            (fun acc (name, ty) -> Subst.add_ty name ty acc)
            subst (Subst.bindings msubst)
        in
        List.iter
          (fun wc ->
            emit cx (Subst.predicate subst wc) ~origin:(Expr.describe whole) ~span)
          ms.m_generics.where_clauses;
        let inputs = List.map (Subst.ty subst) ms.m_inputs in
        if List.length args <> List.length inputs then begin
          error cx span "method `%s` takes %d argument%s but %d were supplied" m
            (List.length inputs)
            (if List.length inputs = 1 then "" else "s")
            (List.length args);
          Subst.ty subst ms.m_output
        end
        else begin
          List.iter2
            (fun input a ->
              let arg_ty = infer cx a in
              unify_or_error cx (Expr.span_of a) ~what:"method argument" input arg_ty)
            inputs args;
          Subst.ty subst ms.m_output
        end
  end

let check_stmt cx (s : Expr.stmt) =
  match s with
  | Expr.Expr_stmt e -> ignore (infer cx e)
  | Expr.Let { name; ann; rhs; span } ->
      let ty = infer cx rhs in
      let ty =
        match ann with
        | None -> ty
        | Some ann_ty ->
            unify_or_error cx span ~what:(Printf.sprintf "the annotation of `%s`" name)
              ann_ty ty;
            ann_ty
      in
      cx.locals <- (name, ty) :: cx.locals

(* ------------------------------------------------------------------ *)

(** Type-check one function body. *)
let check_fn ?(cfg = Solver.Solve.default_config) ?cache (program : Program.t)
    (fd : Decl.fndecl) : fn_report =
  let tok = Telemetry.begin_ sp_check_fn in
  let body = Option.value ~default:[] fd.fn_body in
  let st = Solver.Solve.create ~cfg ~env:fd.fn_generics.where_clauses ?cache program in
  let params =
    match fd.fn_param_names with
    | Some names -> List.combine names fd.fn_inputs
    | None -> []
  in
  let cx = { program; st; locals = params; errors = []; goals = []; probes = [] } in
  List.iter (check_stmt cx) body;
  (* run the accumulated obligations to fixpoint on the same state *)
  let reports, rounds =
    Solver.Obligations.solve_goals st (List.rev cx.goals)
  in
  let resolve_local (n, t) = (n, Solver.Infer_ctx.resolve st.icx t) in
  Telemetry.end_ sp_check_fn tok;
  {
    fr_fn = fd;
    fr_locals = List.rev_map resolve_local cx.locals;
    fr_type_errors = List.rev cx.errors;
    fr_obligations = reports;
    fr_probes =
      List.rev_map
        (fun p -> { p with p_recv_ty = Solver.Infer_ctx.resolve st.icx p.p_recv_ty })
        cx.probes;
    fr_rounds = rounds;
  }

(** Type-check every function with a body, sharing one evaluation cache
    across the pass. *)
let check_program ?cfg (program : Program.t) : report =
  let cache = Solver.Eval_cache.create () in
  {
    fr_fns =
      Program.fns program
      |> List.filter (fun (f : Decl.fndecl) -> f.fn_body <> None)
      |> List.map (check_fn ?cfg ~cache program);
  }

(* `argus check` and the serve protocol's `solve` verb share this one
   printer. *)

let run ?(no_coherence = false) ?(profile_pipeline = false) program
    (report : Solver.Obligations.report) =
  let buf = Buffer.create 1024 in
  let bpf fmt = Printf.bprintf buf fmt in
  let issues = ref 0 in
  (* declaration-level checks first: overlap, orphan rule, impl WF *)
  if not no_coherence then begin
    List.iter
      (fun (o : Solver.Coherence.overlap) ->
        incr issues;
        bpf "error[E0119]: conflicting implementations of trait `%s` for type `%s`\n"
          (Trait_lang.Path.name o.trait_)
          (Trait_lang.Pretty.ty o.witness))
      (Solver.Coherence.check program);
    List.iter
      (fun (o : Solver.Coherence.orphan) ->
        incr issues;
        bpf
          "error[E0117]: only traits defined in the current crate can be implemented \
           for arbitrary types (`%s` for `%s` at %s)\n"
          (Trait_lang.Path.to_string o.o_trait)
          (Trait_lang.Pretty.ty o.o_self)
          (Trait_lang.Span.to_string o.o_impl.impl_span))
      (Solver.Coherence.orphan_violations program);
    List.iter
      (fun (f : Solver.Coherence.wf_failure) ->
        incr issues;
        bpf
          "error[E0277]: the associated type binding `%s` does not satisfy `%s` (%s)\n"
          f.wf_assoc
          (Trait_lang.Pretty.trait_ref f.wf_bound)
          (Trait_lang.Span.to_string f.wf_impl.impl_span))
      (Solver.Coherence.check_impl_wf program)
  end;
  let print_goal_report (r : Solver.Obligations.goal_report) =
    let status =
      match r.status with
      | Solver.Obligations.Proved -> "ok"
      | Solver.Obligations.Disproved -> "ERROR"
      | Solver.Obligations.Ambiguous -> "AMBIGUOUS"
    in
    bpf "[%s] %s\n" status (Trait_lang.Pretty.predicate r.final.pred);
    if r.status <> Solver.Obligations.Proved then begin
      incr issues;
      let tree = Argus.Extract.of_report r in
      (* report the goal as the solver last saw it (inference holes
         filled in), not as the source wrote it *)
      let goal = { r.goal with Trait_lang.Program.goal_pred = r.final.pred } in
      let diag = Rustc_diag.Diagnostic.of_tree program goal tree in
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Rustc_diag.Diagnostic.to_string diag);
      Buffer.add_char buf '\n';
      (* under --profile, also exercise the Argus pipeline (DNF ranking +
         rendering) so the report covers those phases *)
      if profile_pipeline then begin
        ignore (Argus.Inertia.rank tree);
        ignore (Argus.Render.tree_to_string tree)
      end
    end
  in
  List.iter print_goal_report report.reports;
  (* type-check fn bodies: the obligations they generate run through the
     same machinery *)
  let tc = Typeck.Infer.check_program program in
  List.iter
    (fun (fr : Typeck.Infer.fn_report) ->
      bpf "fn %s:\n" (Trait_lang.Path.name fr.fr_fn.fn_path);
      List.iter
        (fun (e : Typeck.Infer.type_error) ->
          incr issues;
          bpf "error[E0308]: %s\n  --> %s\n" e.te_message
            (Trait_lang.Span.to_string e.te_span))
        fr.fr_type_errors;
      List.iter
        (fun (p : Typeck.Infer.probe) ->
          if p.p_chosen = None then begin
            incr issues;
            bpf "error[E0599]: no method named `%s` found for `%s`; probed candidates:\n"
              p.p_method
              (Trait_lang.Pretty.ty p.p_recv_ty);
            List.iter
              (fun tree ->
                Buffer.add_string buf
                  (Argus.Render.tree_to_string ~direction:Argus.View_state.Top_down tree);
                Buffer.add_char buf '\n')
              (Argus.Extract.of_probe p.p_nodes)
          end)
        fr.fr_probes;
      List.iter print_goal_report fr.fr_obligations)
    tc.fr_fns;
  (Buffer.contents buf, !issues)

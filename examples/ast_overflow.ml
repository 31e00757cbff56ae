(** §2.2 walkthrough: the accidental infinite recursion.

    Run with: [dune exec examples/ast_overflow.exe]

    Reproduces Fig. 3: the blanket [AstAssocs] impl requires
    [AssocData<Self>], whose impl requires [AstAssocs] again — an E0275
    overflow.  The compiler interleaves the cycle with source locations;
    Argus's CtxtLinks principle keeps the core cycle clean (Fig. 8a) and
    serves locations on demand. *)

let () =
  let entry = Option.get (Corpus.Suite.find "ast-overflow") in
  Printf.printf "== %s ==\n%s\n\n" entry.title entry.description;

  let program, tree = Corpus.Harness.failed_tree entry in
  let goal = List.hd (Trait_lang.Program.goals program) in

  print_endline "--- what rustc says (E0275, Fig. 3b) ---";
  print_string
    (Rustc_diag.Diagnostic.to_string (Rustc_diag.Diagnostic.of_tree program goal tree));
  print_newline ();

  print_endline "--- the clean cycle in the top-down view (Fig. 3c / 8a) ---";
  print_endline (Argus.Render.tree_to_string ~direction:Argus.View_state.Top_down tree);
  print_newline ();

  (* CtxtLinks: source locations on demand rather than interleaved. *)
  print_endline "--- source locations on demand (CtxtLinks) ---";
  Argus.Proof_tree.fold
    (fun () (n : Argus.Proof_tree.node) ->
      match Argus.Ctxlinks.span_of_node program n with
      | Some span ->
          let text =
            match n.kind with
            | Argus.Proof_tree.Goal g -> Trait_lang.Pretty.predicate g.pred
            | Argus.Proof_tree.Cand c -> (
                match c.source with
                | Solver.Trace.Cand_impl i -> Trait_lang.Pretty.impl_header i
                | _ -> "(builtin)")
          in
          Printf.printf "  %-55s -> %s\n" text (Trait_lang.Span.to_string span)
      | None -> ())
    () tree;
  print_newline ();

  (* The overflow marker is machine-visible too. *)
  let overflow_leaves =
    List.filter
      (fun (n : Argus.Proof_tree.node) ->
        match n.kind with Argus.Proof_tree.Goal g -> g.is_overflow | _ -> false)
      (Argus.Proof_tree.failed_goals tree)
  in
  Printf.printf "overflow nodes in the tree: %d\n\n" (List.length overflow_leaves);

  print_endline "--- after the fix (a concrete impl for EmptyNode) ---";
  let fixed = Option.get (Corpus.Suite.find "ast-fixed") in
  let _, report = Corpus.Harness.solve fixed in
  Printf.printf "all goals proved: %b\n" (Solver.Obligations.all_proved report)

(** §2.3 walkthrough: the errant function parameter.

    Run with: [dune exec examples/bevy_errant_param.exe]

    Reproduces Fig. 4 and Fig. 9/10: [run_timer] takes [Timer] instead of
    [ResMut<Timer>].  The compiler's diagnostic stops at the [IntoSystem]
    branch point and never mentions the actual culprit
    [Timer: SystemParam]; Argus's bottom-up view surfaces it first, and
    the inertia pipeline (tree → MCS → classify → weight → sort) explains
    why it outranks the alternative [{run_timer}: System]. *)

let () =
  let entry = Option.get (Corpus.Suite.find "bevy-errant-param") in
  Printf.printf "== %s ==\n%s\n\n" entry.title entry.description;

  let program, tree = Corpus.Harness.failed_tree entry in
  let goal = List.hd (Trait_lang.Program.goals program) in

  print_endline "--- what rustc says (stops at the branch point, Fig. 4b) ---";
  print_string
    (Rustc_diag.Diagnostic.to_string (Rustc_diag.Diagnostic.of_tree program goal tree));
  print_newline ();

  print_endline "--- the Argus top-down view shows the branch (Fig. 4c / 9b) ---";
  print_endline (Argus.Render.tree_to_string ~direction:Argus.View_state.Top_down tree);
  print_newline ();

  print_endline "--- the inertia pipeline (Fig. 10) ---";
  let ranking = Argus.Inertia.rank tree in
  List.iter
    (fun (s : Argus.Inertia.scored_set) ->
      List.iter
        (fun (p, _, kind, w) ->
          let kind_name =
            match (kind : Argus.Inertia.goal_kind) with
            | Argus.Inertia.Trait { self_; trait_ } ->
                Printf.sprintf "Trait { self: %s, trait: %s }"
                  (match self_ with Argus.Inertia.Local -> "local" | _ -> "external")
                  (match trait_ with Argus.Inertia.Local -> "local" | _ -> "external")
            | Argus.Inertia.FnToTrait { arity; _ } ->
                Printf.sprintf "FnToTrait { arity: %d }" arity
            | Argus.Inertia.TyChange -> "TyChange"
            | Argus.Inertia.TyAsCallable { arity } ->
                Printf.sprintf "TyAsCallable { arity: %d }" arity
            | Argus.Inertia.Misc -> "Misc"
            | _ -> "Params"
          in
          Printf.printf "  %-45s %-32s weight %d  (set total %d)\n"
            (Trait_lang.Pretty.predicate p) kind_name w s.total)
        s.predicates)
    ranking.sets;
  print_newline ();

  print_endline "--- the bottom-up view, sorted by inertia (Fig. 9a) ---";
  print_endline (Argus.Render.tree_to_string ~direction:Argus.View_state.Bottom_up tree);
  print_newline ();

  (* CtxtLinks: the Fig. 8b popup — all implementers of SystemParam. *)
  print_endline "--- CtxtLinks: implementers of SystemParam (Fig. 8b) ---";
  let rc = Corpus.Harness.root_cause_pred entry in
  (match Trait_lang.Predicate.trait_path rc with
  | Some t -> List.iter print_endline (Argus.Ctxlinks.impls_of_trait program t)
  | None -> ());
  print_newline ();

  print_endline "--- after the fix (ResMut<Timer>) ---";
  let fixed = Option.get (Corpus.Suite.find "bevy-correct-param") in
  let _, report = Corpus.Harness.solve fixed in
  Printf.printf "all goals proved: %b\n" (Solver.Obligations.all_proved report)

(** §2.1 walkthrough: the missing table join.

    Run with: [dune exec examples/diesel_missing_join.exe]

    Reproduces Fig. 2: the query selects [posts::id] without joining
    [posts], Diesel's trait machinery rejects [.load(conn)], and the
    compiler-style diagnostic elides the most informative bound
    ("N redundant requirements hidden").  Argus's CollapseSeq principle
    instead lets the developer unfold the chain step by step — shown here
    by progressively expanding the bottom-up view. *)

let () =
  let entry = Option.get (Corpus.Suite.find "diesel-missing-join") in
  Printf.printf "== %s ==\n%s\n\n" entry.title entry.description;

  let program, tree = Corpus.Harness.failed_tree entry in
  let goal = List.hd (Trait_lang.Program.goals program) in

  (* The baseline diagnostic, with its elision (Fig. 2b). *)
  print_endline "--- what rustc says ---";
  let diag = Rustc_diag.Diagnostic.of_tree program goal tree in
  print_string (Rustc_diag.Diagnostic.to_string diag);
  Printf.printf "(%d requirements were hidden by the diagnostic)\n\n" diag.hidden;

  (* CollapseSeq: start collapsed, unfold one level at a time. *)
  print_endline "--- Argus bottom-up, unfolding step by step (CollapseSeq) ---";
  let vs = Argus.View_state.create tree in
  let show vs =
    List.iter
      (fun (l : Argus.Render.line) -> print_endline (Argus.Render.line_to_string l))
      (Argus.Render.view vs);
    print_newline ()
  in
  show vs;
  (* expand the first root twice, following the chain upward *)
  let expand_first vs =
    match Argus.Render.view vs with
    | [] -> vs
    | lines ->
        let last = List.nth lines (List.length lines - 1) in
        Argus.View_state.expand vs last.node
  in
  let vs = expand_first vs in
  show vs;
  let vs = expand_first vs in
  show vs;

  (* ShortTys: the same predicate, short vs fully qualified. *)
  print_endline "--- ShortTys: default vs fully-qualified ---";
  let rc = Corpus.Harness.root_cause_pred entry in
  Printf.printf "short:     %s\n" (Trait_lang.Pretty.predicate rc);
  Printf.printf "qualified: %s\n\n"
    (Trait_lang.Pretty.predicate ~cfg:Trait_lang.Pretty.verbose rc);

  (* The fix: the same query over an inner join type-checks. *)
  print_endline "--- after the fix (.inner_join(posts::table)) ---";
  let fixed = Option.get (Corpus.Suite.find "diesel-with-join") in
  let _, report = Corpus.Harness.solve fixed in
  Printf.printf "all goals proved: %b\n" (Solver.Obligations.all_proved report)

(** Tests for the corpus: every suite program must parse, resolve, solve,
    fail with its documented ground-truth root cause among the failing
    leaves, and the libraries themselves must be coherent.  Also the
    headline result (§5.2.2): inertia ranks the root cause at index 0 on
    every suite entry. *)

open Trait_lang

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* generic per-entry invariants *)

let entry_tests =
  List.concat_map
    (fun (e : Corpus.Harness.entry) ->
      [
        Alcotest.test_case (e.id ^ " loads") `Quick (fun () ->
            let program = Corpus.Harness.load e in
            check_bool "has declarations" true (Program.decl_count program > 0);
            check_bool "has a goal" true (Program.goals program <> []));
        Alcotest.test_case (e.id ^ " fails as documented") `Quick (fun () ->
            let _, report = Corpus.Harness.solve e in
            check_bool "is a trait error" true
              (not (Solver.Obligations.all_proved report)));
        Alcotest.test_case (e.id ^ " root cause is a failing leaf") `Quick (fun () ->
            check_bool "leaf" true (Corpus.Harness.root_cause_is_leaf e));
        Alcotest.test_case (e.id ^ " inertia ranks root cause first") `Quick (fun () ->
            let _, tree = Corpus.Harness.failed_tree e in
            let rc = Corpus.Harness.root_cause_pred e in
            check_bool "rank 0" true
              (Argus.Heuristics.rank_of_root_cause Argus.Heuristics.by_inertia tree
                 ~root_cause:rc
              = Some 0));
      ])
    Corpus.Suite.entries

let extras_tests =
  List.filter_map
    (fun (e : Corpus.Harness.entry) ->
      if e.root_cause = "" then
        Some
          (Alcotest.test_case (e.id ^ " type-checks") `Quick (fun () ->
               let _, report = Corpus.Harness.solve e in
               check_bool "all proved" true (Solver.Obligations.all_proved report)))
      else
        Some
          (Alcotest.test_case (e.id ^ " fails with leaf root cause") `Quick (fun () ->
               check_bool "leaf" true (Corpus.Harness.root_cause_is_leaf e))))
    Corpus.Suite.extras

(* ------------------------------------------------------------------ *)
(* library-level invariants *)

let all_sources =
  [
    ("diesel missing_join", Corpus.Diesel_lite.missing_join);
    ("bevy errant_param", Corpus.Bevy_lite.errant_param);
    ("axum bad_return", Corpus.Axum_lite.bad_return);
    ("brew clashing", Corpus.Brew.clashing_recipe);
    ("space raw_payload", Corpus.Space.raw_payload);
  ]

let test_libraries_coherent () =
  (* no overlapping impls in any bundled library *)
  List.iter
    (fun (name, src) ->
      let program = Resolve.program_of_string ~file:"c.rs" src in
      let overlaps = Solver.Coherence.check program in
      Alcotest.check Alcotest.int (name ^ " coherent") 0 (List.length overlaps))
    all_sources

let test_libraries_no_orphans () =
  List.iter
    (fun (name, src) ->
      let program = Resolve.program_of_string ~file:"c.rs" src in
      Alcotest.check Alcotest.int
        (name ^ " orphan-free")
        0
        (List.length (Solver.Coherence.orphan_violations program)))
    all_sources

let test_suite_composition () =
  check_int "seventeen programs (§5.2.1)" 17 Corpus.Suite.size;
  (* real-library and synthetic tasks both present, like the paper's *)
  let real, synth =
    List.partition (fun (e : Corpus.Harness.entry) -> e.kind = Corpus.Harness.Real)
      Corpus.Suite.entries
  in
  check_bool "has real-library tasks" true (List.length real >= 8);
  check_bool "has synthetic tasks" true (List.length synth >= 4);
  (* ids unique *)
  let ids = List.map (fun (e : Corpus.Harness.entry) -> e.id) Corpus.Suite.entries in
  check_int "unique ids" (List.length ids) (List.length (List.sort_uniq compare ids))

let test_failure_mode_coverage () =
  (* the suite covers all three §2 failure modes *)
  let has_code code ids =
    List.exists
      (fun id ->
        let e = Option.get (Corpus.Suite.find id) in
        let program, tree = Corpus.Harness.failed_tree e in
        let goal = List.hd (Program.goals program) in
        (Rustc_diag.Diagnostic.of_tree program goal tree).code = code)
      ids
  in
  check_bool "E0271 (projection mismatch, §2.1)" true
    (has_code "E0271" [ "diesel-missing-join"; "brew-clashing-recipe" ]);
  check_bool "E0275 (overflow, §2.2)" true (has_code "E0275" [ "ast-overflow" ]);
  check_bool "E0277 (unsatisfied bound, §2.3)" true
    (has_code "E0277" [ "bevy-errant-param"; "space-raw-payload" ])

let test_branch_points_exist () =
  (* Bevy-style tasks must actually branch (≥2 failing candidates at some
     node), or the §2.3 phenomenon is not being exercised *)
  List.iter
    (fun id ->
      let e = Option.get (Corpus.Suite.find id) in
      let _, tree = Corpus.Harness.failed_tree e in
      let has_branch =
        Argus.Proof_tree.fold
          (fun acc (n : Argus.Proof_tree.node) ->
            acc
            ||
            match n.kind with
            | Argus.Proof_tree.Goal _ ->
                let failing_cands_with_subs =
                  Argus.Proof_tree.children tree n
                  |> List.filter (fun c ->
                         (not (Argus.Proof_tree.is_goal c))
                         && Argus.Proof_tree.is_failed c
                         && List.exists
                              (fun s ->
                                Argus.Proof_tree.is_goal s && Argus.Proof_tree.is_failed s)
                              (Argus.Proof_tree.children tree c))
                in
                List.length failing_cands_with_subs >= 2
            | _ -> false)
          false tree
      in
      check_bool (id ^ " branches") true has_branch)
    [ "bevy-errant-param"; "space-raw-payload" ]

let test_diesel_chain_is_deep () =
  (* the §2.1 phenomenon needs a chain long enough to trigger elision *)
  let e = Option.get (Corpus.Suite.find "diesel-missing-join") in
  let program, tree = Corpus.Harness.failed_tree e in
  let goal = List.hd (Program.goals program) in
  let d = Rustc_diag.Diagnostic.of_tree program goal tree in
  check_bool "elides requirements" true (d.hidden >= 2)

let test_overflow_task_is_overflow () =
  let e = Option.get (Corpus.Suite.find "ast-overflow") in
  let _, tree = Corpus.Harness.failed_tree e in
  let any_overflow =
    Argus.Proof_tree.fold
      (fun acc (n : Argus.Proof_tree.node) ->
        acc
        || match n.kind with Argus.Proof_tree.Goal g -> g.is_overflow | _ -> false)
      false tree
  in
  check_bool "has overflow node" true any_overflow

let test_root_cause_error_handling () =
  let bogus : Corpus.Harness.entry =
    {
      id = "bogus";
      title = "";
      library = "std";
      kind = Corpus.Harness.Synthetic;
      description = "";
      source = "struct A; trait T {} goal A: T;";
      root_cause = "Unknown: T";
      fix_hint = "";
    }
  in
  Alcotest.check_raises "unresolvable root cause"
    (Corpus.Harness.Corpus_error
       "bogus: root cause does not resolve: cannot find `Unknown` in this scope")
    (fun () -> ignore (Corpus.Harness.root_cause_pred bogus))

(* ------------------------------------------------------------------ *)
(* the extended corpus (serde/futures): same invariants as the suite *)

let extended_tests =
  List.concat_map
    (fun (e : Corpus.Harness.entry) ->
      [
        Alcotest.test_case (e.id ^ " fails as documented") `Quick (fun () ->
            let _, report = Corpus.Harness.solve e in
            check_bool "is a trait error" true (not (Solver.Obligations.all_proved report)));
        Alcotest.test_case (e.id ^ " root cause is a failing leaf") `Quick (fun () ->
            check_bool "leaf" true (Corpus.Harness.root_cause_is_leaf e));
        Alcotest.test_case (e.id ^ " inertia ranks root cause first") `Quick (fun () ->
            let _, tree = Corpus.Harness.failed_tree e in
            let rc = Corpus.Harness.root_cause_pred e in
            check_bool "rank 0" true
              (Argus.Heuristics.rank_of_root_cause Argus.Heuristics.by_inertia tree
                 ~root_cause:rc
              = Some 0));
      ])
    Corpus.Suite.extended
  @ List.map
      (fun (e : Corpus.Harness.entry) ->
        Alcotest.test_case (e.id ^ " type-checks") `Quick (fun () ->
            let _, report = Corpus.Harness.solve e in
            check_bool "all proved" true (Solver.Obligations.all_proved report)))
      Corpus.Suite.extended_ok

let test_extended_serde_chain_depth () =
  (* the serde chain must be deep enough to elide, like §2.1 *)
  let e =
    List.find
      (fun (x : Corpus.Harness.entry) -> x.id = "serde-missing-field-impl")
      Corpus.Suite.extended
  in
  let program, tree = Corpus.Harness.failed_tree e in
  let goal = List.hd (Program.goals program) in
  let d = Rustc_diag.Diagnostic.of_tree program goal tree in
  check_bool "chain elides" true (d.hidden >= 1)

let test_extended_send_auto_trait_shape () =
  (* rc-across-await's tree passes through the structural Send impls *)
  let e =
    List.find
      (fun (x : Corpus.Harness.entry) -> x.id = "futures-rc-across-await")
      Corpus.Suite.extended
  in
  let _, tree = Corpus.Harness.failed_tree e in
  let preds =
    Argus.Proof_tree.fold
      (fun acc (n : Argus.Proof_tree.node) ->
        match n.kind with
        | Argus.Proof_tree.Goal g -> Pretty.predicate ~cfg:Pretty.expanded g.pred :: acc
        | _ -> acc)
      [] tree
  in
  check_bool "tuple Send step present" true
    (List.exists (fun s -> s = "(Db, Rc<Vec<String>>): Send") preds);
  check_bool "root cause present" true
    (List.exists (fun s -> s = "Rc<Vec<String>>: Send") preds)

(* ------------------------------------------------------------------ *)
(* the 8 removed programs: each must exhibit its removal reason *)

let removed_tests =
  List.map
    (fun ((e : Corpus.Harness.entry), reason) ->
      Alcotest.test_case (e.id ^ " exhibits its removal reason") `Quick (fun () ->
          match reason with
          | Corpus.Suite.Not_a_trait_error ->
              check_bool "fails before trait solving" true
                (try
                   ignore (Corpus.Harness.load e);
                   false
                 with Corpus.Harness.Corpus_error _ -> true)
          | Corpus.Suite.No_clear_intention ->
              let _, report = Corpus.Harness.solve e in
              let r = List.hd report.reports in
              check_bool "ambiguous, not disproved" true
                (r.status = Solver.Obligations.Ambiguous)
          | Corpus.Suite.Compiler_limitation ->
              (* rejected (overflow) even though a concrete impl exists *)
              let _, report = Corpus.Harness.solve e in
              check_bool "fails only by engine limits" true
                (not (Solver.Obligations.all_proved report))
          | Corpus.Suite.Crashes_compiler ->
              (* must still terminate for us, at any budget, via the
                 depth limit — and keep failing as the budget grows *)
              List.iter
                (fun depth_limit ->
                  let cfg = { Solver.Solve.depth_limit } in
                  let program = Corpus.Harness.load e in
                  let report = Solver.Obligations.solve_program ~cfg program in
                  check_bool "overflows at any budget" true
                    (not (Solver.Obligations.all_proved report)))
                [ 8; 32; 64 ]))
    Corpus.Suite.removed

let test_removed_count () =
  check_int "eight removed programs (25 - 17)" 8 (List.length Corpus.Suite.removed)

let () =
  Alcotest.run "corpus"
    [
      ("suite entries", entry_tests);
      ("extras", extras_tests);
      ( "extended corpus",
        extended_tests
        @ [
            Alcotest.test_case "serde chain depth" `Quick test_extended_serde_chain_depth;
            Alcotest.test_case "Send auto-trait shape" `Quick
              test_extended_send_auto_trait_shape;
          ] );
      ("removed (§5.2.1)", Alcotest.test_case "count" `Quick test_removed_count :: removed_tests);
      ( "libraries",
        [
          Alcotest.test_case "coherence" `Quick test_libraries_coherent;
          Alcotest.test_case "orphan rule" `Quick test_libraries_no_orphans;
        ] );
      ( "composition",
        [
          Alcotest.test_case "17 programs" `Quick test_suite_composition;
          Alcotest.test_case "failure-mode coverage" `Quick test_failure_mode_coverage;
          Alcotest.test_case "branch points" `Quick test_branch_points_exist;
          Alcotest.test_case "diesel chain depth" `Quick test_diesel_chain_is_deep;
          Alcotest.test_case "overflow task" `Quick test_overflow_task_is_overflow;
          Alcotest.test_case "root-cause errors" `Quick test_root_cause_error_handling;
        ] );
    ]

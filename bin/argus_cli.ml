(** The Argus command-line interface.

    The paper ships Argus as a VS Code extension; the terminal is our
    embedding of the same view machinery (the paper notes the interface
    "can also be embedded in other contexts").  Subcommands:

    - [check]: solve a .trait file, print per-goal status and the
      rustc-style diagnostic for failures (the baseline experience);
    - [bottom-up] / [top-down]: the Argus views, fully expanded;
    - [inertia]: the MCSes and ranked root-cause candidates;
    - [diag]: only the compiler-style diagnostic;
    - [profile]: per-goal cost attribution (hot-goal table, flamegraphs,
      heat-annotated proof trees);
    - [json]: the serialized report for external tooling;
    - [corpus]: list or run the bundled evaluation programs;
    - [study]: run the simulated user study;
    - [interactive]: drive the view state machine with expand/collapse/
      hover commands, as the IDE extension would. *)

open Cmdliner

let load_program path =
  match In_channel.with_open_bin path In_channel.input_all with
  | source -> Trait_lang.Resolve.load ~file:path source
  | exception Sys_error m -> Error m

(* Load failures (parse / name-resolution / IO) exit with 2, leaving 1
   for "the file loaded but has trait or type errors" — so scripts can
   tell a broken input apart from a failing one. *)
let or_die = function
  | Ok v -> v
  | Error m ->
      prerr_endline ("error: " ^ m);
      exit 2

(* ------------------------------------------------------------------ *)
(* Observability: --profile / --trace-out / --events-out, accepted by
   every subcommand *)

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Collect telemetry during the run (per-phase span timings, solver \
           counters) and print the report table to standard error on exit.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's telemetry as Chrome trace-event JSON to $(docv), \
           loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Implies \
           telemetry collection.")

let events_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events-out" ] ~docv:"FILE"
        ~doc:
          "Stream the solver's search journal to $(docv) as JSONL (schema \
           argus.journal/v2): goal enter/exit, candidate assembly and \
           evaluation, unification attempts, snapshot traffic, normalization, \
           cycles, overflow, ambiguity. Inspect with $(b,argus explain). The \
           file is opened and its header written before solving starts, so it \
           is well-formed even if the run aborts.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the solver's evaluation cache (per-run memoization of \
           ground goals' proof trees). Every goal is re-evaluated from \
           scratch; useful for timing comparisons and for isolating \
           cache-related behavior.")

let trace_buffer_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "trace-buffer" ] ~docv:"N"
        ~doc:
          "Cap the telemetry event buffer at $(docv) events \
           (default 65536, minimum 256). The $(b,--profile) report counts \
           events dropped at the cap; raise it for long runs that truncate.")

(* Open the events file eagerly (header first, so it is well-formed even
   if the run aborts) and close it at exit, because subcommands
   terminate through [exit n]. *)
let open_events_file path =
  try
    let oc = open_out path in
    output_string oc (Argus_json.Journal_codec.header_line ());
    output_char oc '\n';
    at_exit (fun () ->
        Journal.set_sink None;
        try close_out oc with Sys_error _ -> ());
    oc
  with Sys_error m ->
    prerr_endline ("error: cannot open events file: " ^ m);
    exit 2

let write_event oc e =
  output_string oc (Argus_json.Json.to_string (Argus_json.Journal_codec.entry_to_json e));
  output_char oc '\n'

(* Telemetry/profiling and cache switches, shared by every subcommand.
   [check] handles --events-out itself (it zeroes timestamps unless
   --timestamps is given); the other subcommands stream straight to the
   file. *)
let observability_setup profile trace_out no_cache trace_buffer =
  if no_cache then Solver.Eval_cache.set_enabled false;
  Option.iter Telemetry.set_max_events trace_buffer;
  if profile || trace_out <> None then begin
    Telemetry.enable ();
    (* at_exit, because subcommands terminate through [exit n] *)
    at_exit (fun () ->
        let sn = Telemetry.snapshot () in
        (match trace_out with
        | None -> ()
        | Some path -> (
            try
              let oc = open_out path in
              Fun.protect
                ~finally:(fun () -> close_out oc)
                (fun () ->
                  output_string oc (Argus_json.Telemetry_export.chrome_trace_string sn);
                  output_char oc '\n');
              Printf.eprintf "telemetry: wrote Chrome trace to %s\n%!" path
            with Sys_error m -> Printf.eprintf "telemetry: cannot write trace: %s\n%!" m));
        if profile then prerr_string (Telemetry.report_to_string sn))
  end

let telemetry_setup profile trace_out events_out no_cache trace_buffer =
  observability_setup profile trace_out no_cache trace_buffer;
  match events_out with
  | None -> ()
  | Some path ->
      let oc = open_events_file path in
      Journal.set_sink (Some (write_event oc))

let observability_term =
  Term.(const observability_setup $ profile_arg $ trace_out_arg $ no_cache_arg $ trace_buffer_arg)

let telemetry_term =
  Term.(
    const telemetry_setup $ profile_arg $ trace_out_arg $ events_out_arg $ no_cache_arg
    $ trace_buffer_arg)

(* ------------------------------------------------------------------ *)
(* Common arguments *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"L_TRAIT source file")

let show_all_arg =
  Arg.(
    value & flag
    & info [ "show-all-predicates" ]
        ~doc:"Show compiler-internal and stateful predicates (the §4 toggle).")

let ranker_arg =
  let rankers =
    [ ("inertia", `Inertia); ("depth", `Depth); ("vars", `Vars); ("none", `None) ]
  in
  Arg.(
    value
    & opt (enum rankers) `Inertia
    & info [ "ranker" ] ~doc:"Bottom-up ordering heuristic: inertia, depth, vars, none.")

let ranker_of = function
  | `Inertia -> Argus.Heuristics.by_inertia
  | `Depth -> Argus.Heuristics.by_depth
  | `Vars -> Argus.Heuristics.by_infer_vars
  | `None -> Argus.Heuristics.unsorted

let solve_file path =
  let program = or_die (load_program path) in
  (program, Solver.Obligations.solve_program program)

(* ------------------------------------------------------------------ *)
(* check *)

let check_cmd =
  let run () events_out files no_coherence timestamps =
    (match events_out with
    | None -> ()
    | Some path ->
        let oc = open_events_file path in
        Journal.set_sink
          (Some
             (fun e ->
               write_event oc (if timestamps then e else { e with Journal.ts_ns = 0 }))));
    let many = List.length files > 1 in
    let load_error = ref false and issues = ref 0 in
    List.iter
      (fun path ->
        if many then Printf.printf "== %s ==\n" path;
        match load_program path with
        | Error m ->
            load_error := true;
            prerr_endline ("error: " ^ m)
        | Ok program ->
            let report = Solver.Obligations.solve_program program in
            (* Rendering lives in Serve.Check_render, shared with the
               serve protocol's `solve` verb so daemon responses are
               byte-identical to this one-shot path by construction. *)
            let out, n =
              Serve.Check_render.run ~no_coherence
                ~profile_pipeline:(Telemetry.enabled ()) program report
            in
            print_string out;
            issues := !issues + n)
      files;
    if !load_error then exit 2 else if !issues > 0 then exit 1 else exit 0
  in
  let files_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE" ~doc:"L_TRAIT source files (one or more)")
  in
  let no_coherence =
    Arg.(value & flag & info [ "no-coherence" ] ~doc:"Skip overlap/orphan/WF checks.")
  in
  let timestamps =
    Arg.(
      value & flag
      & info [ "timestamps" ]
          ~doc:
            "Keep real $(b,ts_ns) timestamps in the $(b,--events-out) journal \
             instead of normalizing them to 0. Needed for $(b,argus profile) \
             and $(b,argus explain --timings) on the journal; the journal is \
             then no longer byte-identical across runs.")
  in
  let exits =
    Cmd.Exit.info 1 ~doc:"on trait-solving or type-checking failures."
    :: Cmd.Exit.info 2
         ~doc:"on parse, name-resolution, or I/O errors in any $(i,FILE)."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "check" ~exits
       ~doc:
         "Type-check files: coherence, orphan rule, impl WF, and all goals. \
          Multiple files are checked in input order, each headed by \
          $(b,== FILE ==), into one journal.")
    Term.(
      const run $ observability_term $ events_out_arg $ files_arg $ no_coherence
      $ timestamps)

(* ------------------------------------------------------------------ *)
(* views *)

let view_cmd name direction =
  let run () file show_all ranker =
    let _, report = solve_file file in
    List.iter
      (fun (r : Solver.Obligations.goal_report) ->
        if r.status <> Solver.Obligations.Proved then begin
          let tree = Argus.Extract.of_report r in
          print_endline
            (Argus.Render.tree_to_string ~direction ~ranker:(ranker_of ranker)
               ~show_all_predicates:show_all tree);
          print_newline ()
        end)
      report.reports
  in
  Cmd.v
    (Cmd.info name ~doc:(Printf.sprintf "Print the %s view of each failing goal" name))
    Term.(const run $ telemetry_term $ file_arg $ show_all_arg $ ranker_arg)

let bottom_up_cmd = view_cmd "bottom-up" Argus.View_state.Bottom_up
let top_down_cmd = view_cmd "top-down" Argus.View_state.Top_down

(* ------------------------------------------------------------------ *)
(* diag *)

let diag_cmd =
  let run () file =
    let program, report = solve_file file in
    List.iter
      (fun (r : Solver.Obligations.goal_report) ->
        if r.status <> Solver.Obligations.Proved then
          print_string
            (Rustc_diag.Diagnostic.to_string
               (Rustc_diag.Diagnostic.of_tree program r.goal (Argus.Extract.of_report r))))
      report.reports
  in
  Cmd.v (Cmd.info "diag" ~doc:"Print rustc-style diagnostics (the baseline)")
    Term.(const run $ telemetry_term $ file_arg)

(* ------------------------------------------------------------------ *)
(* inertia *)

let inertia_cmd =
  let run () file =
    let _, report = solve_file file in
    List.iter
      (fun (r : Solver.Obligations.goal_report) ->
        if r.status <> Solver.Obligations.Proved then begin
          let tree = Argus.Extract.of_report r in
          let ranking = Argus.Inertia.rank tree in
          Printf.printf "goal: %s\n" (Trait_lang.Pretty.predicate r.goal.goal_pred);
          Printf.printf "minimum correction subsets (%d):\n" (List.length ranking.sets);
          List.iter
            (fun (s : Argus.Inertia.scored_set) ->
              Printf.printf "  score %2d: %s\n" s.total
                (String.concat " AND "
                   (List.map
                      (fun (p, _, _, w) ->
                        Printf.sprintf "%s [w=%d]" (Trait_lang.Pretty.predicate p) w)
                      s.predicates)))
            ranking.sets;
          print_endline "ranked root-cause candidates:";
          List.iteri
            (fun i (n : Argus.Proof_tree.node) ->
              match n.kind with
              | Argus.Proof_tree.Goal g ->
                  Printf.printf "  %d. %s\n" i (Trait_lang.Pretty.predicate g.pred)
              | _ -> ())
            (Argus.Inertia.leaves_of_ranking tree ranking)
        end)
      report.reports
  in
  Cmd.v (Cmd.info "inertia" ~doc:"Print MCSes and the inertia ranking")
    Term.(const run $ telemetry_term $ file_arg)

(* ------------------------------------------------------------------ *)
(* json *)

let json_cmd =
  let run () file =
    let _, report = solve_file file in
    print_endline (Argus_json.Json.to_string_pretty (Argus_json.Encode.report report))
  in
  Cmd.v (Cmd.info "json" ~doc:"Serialize the solving report as JSON")
    Term.(const run $ telemetry_term $ file_arg)

(* ------------------------------------------------------------------ *)
(* html *)

let html_cmd =
  let run () file out =
    let program, report = solve_file file in
    match
      List.find_opt
        (fun (r : Solver.Obligations.goal_report) -> r.status <> Solver.Obligations.Proved)
        report.reports
    with
    | None -> print_endline "no trait errors — nothing to render"
    | Some r ->
        let tree = Argus.Extract.of_report r in
        let diag =
          Rustc_diag.Diagnostic.to_string (Rustc_diag.Diagnostic.of_tree program r.goal tree)
        in
        let html =
          Argus.Html.page
            ~title:(Printf.sprintf "Trait error in %s" (Filename.basename file))
            ~program ~diagnostic:(Some diag) tree
        in
        let oc = open_out out in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc html);
        Printf.printf "wrote %s\n" out
  in
  let out_arg =
    Arg.(value & opt string "argus.html" & info [ "o"; "output" ] ~doc:"output file")
  in
  Cmd.v
    (Cmd.info "html"
       ~doc:"Render the first failing goal as a standalone HTML page (textbook embedding)")
    Term.(const run $ telemetry_term $ file_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* dot *)

let dot_cmd =
  let run () file failures_only =
    let _, report = solve_file file in
    List.iter
      (fun (r : Solver.Obligations.goal_report) ->
        if r.status <> Solver.Obligations.Proved then
          print_string
            (Argus.Dot.of_tree
               ~opts:{ Argus.Dot.default_options with show_successes = not failures_only }
               (Argus.Extract.of_report r)))
      report.reports
  in
  let failures_only =
    Arg.(value & flag & info [ "failures-only" ] ~doc:"Omit proven subtrees.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Render failing goals as GraphViz digraphs (Fig. 4c style)")
    Term.(const run $ telemetry_term $ file_arg $ failures_only)

(* ------------------------------------------------------------------ *)
(* corpus *)

let corpus_cmd =
  let list_all () =
    Printf.printf "%-28s %-12s %s\n" "ID" "LIBRARY" "TITLE";
    List.iter
      (fun (e : Corpus.Harness.entry) ->
        Printf.printf "%-28s %-12s %s\n" e.id e.library e.title)
      Corpus.Suite.all
  in
  (* Solve every bundled program and print a one-line verdict per
     entry, in suite order. *)
  let run_all () =
    let results =
      try List.map (fun e -> (e, snd (Corpus.Harness.solve e))) Corpus.Suite.all
      with Corpus.Harness.Corpus_error m ->
        prerr_endline ("error: " ^ m);
        exit 2
    in
    List.iter
      (fun ((e : Corpus.Harness.entry), (report : Solver.Obligations.report)) ->
        let errors = Solver.Obligations.errors report in
        let ambiguous =
          List.filter
            (fun (r : Solver.Obligations.goal_report) ->
              r.status = Solver.Obligations.Ambiguous)
            report.reports
        in
        let verdict =
          if errors <> [] then Printf.sprintf "%d trait error(s)" (List.length errors)
          else if ambiguous <> [] then Printf.sprintf "%d ambiguous" (List.length ambiguous)
          else "ok"
        in
        Printf.printf "%-28s %s\n" e.id verdict)
      results
  in
  let run () id_opt all =
    match (id_opt, all) with
    | _, true -> run_all ()
    | None, false -> list_all ()
    | Some id, false -> (
        match Corpus.Suite.find id with
        | None ->
            prerr_endline ("unknown corpus entry: " ^ id);
            exit 1
        | Some e ->
            Printf.printf "%s — %s\n%s\n\n" e.id e.title e.description;
            let program, report = Corpus.Harness.solve e in
            List.iter
              (fun (r : Solver.Obligations.goal_report) ->
                if r.status <> Solver.Obligations.Proved then begin
                  let tree = Argus.Extract.of_report r in
                  print_string
                    (Rustc_diag.Diagnostic.to_string
                       (Rustc_diag.Diagnostic.of_tree program r.goal tree));
                  print_newline ();
                  print_endline (Argus.Render.tree_to_string tree)
                end
                else Printf.printf "[ok] %s\n" (Trait_lang.Pretty.predicate r.goal.goal_pred))
              report.reports)
  in
  let id_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"corpus entry id")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Solve every bundled program and print a one-line verdict per \
             entry, in suite order.")
  in
  Cmd.v (Cmd.info "corpus" ~doc:"List or run the bundled evaluation programs")
    Term.(const run $ telemetry_term $ id_arg $ all_arg)

(* ------------------------------------------------------------------ *)
(* study *)

let study_cmd =
  let run () seed n =
    let d = Study.Simulate.run ~seed ~n () in
    print_endline (Study.Analyze.to_string (Study.Analyze.analyze d))
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed") in
  let n_arg = Arg.(value & opt int 25 & info [ "participants" ] ~doc:"number of participants") in
  Cmd.v (Cmd.info "study" ~doc:"Run the simulated user study (Fig. 11)")
    Term.(const run $ telemetry_term $ seed_arg $ n_arg)

(* ------------------------------------------------------------------ *)
(* explain *)

let explain_cmd =
  (* Rendering lives in Serve.Explain_render, shared with the serve
     protocol's `explain` verb so daemon responses are byte-identical to
     this offline path by construction. *)
  let run () file node_id failures timings =
    let text =
      try In_channel.with_open_bin file In_channel.input_all
      with Sys_error m ->
        prerr_endline ("error: " ^ m);
        exit 2
    in
    let entries =
      try Argus_json.Journal_codec.of_jsonl text
      with Argus_json.Decode.Decode_error e ->
        Printf.eprintf "error: %s: %s at %s\n" file e.message e.path;
        exit 2
    in
    let prof =
      if not timings then None
      else begin
        let p = Profile.of_entries entries in
        if p.Profile.zero_ts then
          prerr_endline
            "warning: journal timestamps are normalized to 0 (argus check does \
             this for determinism) — no wall time to report; re-record with \
             `argus check --timestamps` or a single-file subcommand";
        Some p
      end
    in
    match Journal.replay entries with
    | Error m ->
        Printf.eprintf "error: inconsistent journal: %s\n" m;
        exit 2
    | Ok tree -> (
        match node_id with
        | Some id -> (
            match Serve.Explain_render.node ?prof tree id with
            | Ok out -> print_string out
            | Error m ->
                Printf.eprintf "error: %s\n" m;
                exit 1)
        | None ->
            if failures then print_string (Serve.Explain_render.failures ?prof tree)
            else
              print_string
                (Serve.Explain_render.summary ?prof ~entries:(List.length entries)
                   tree))
  in
  let events_file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"EVENTS.jsonl" ~doc:"journal file written by --events-out")
  in
  let node_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "node" ] ~docv:"ID"
          ~doc:"Explain the goal or candidate with this stable event node ID.")
  in
  let failures_arg =
    Arg.(
      value & flag
      & info [ "failures" ]
          ~doc:"Narrate every failed leaf goal and its rejecting unification.")
  in
  let timings_arg =
    Arg.(
      value & flag
      & info [ "timings" ]
          ~doc:
            "Annotate goals with self/total wall time attributed from the \
             journal's $(b,ts_ns) deltas. Requires a journal with real \
             timestamps ($(b,argus check --timestamps), or any single-file \
             subcommand's $(b,--events-out)).")
  in
  let exits =
    Cmd.Exit.info 1 ~doc:"when $(b,--node) $(i,ID) does not exist in the journal."
    :: Cmd.Exit.info 2 ~doc:"on unreadable, malformed, or inconsistent journal files."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "explain" ~exits
       ~doc:
         "Reconstruct the solver search from a journal file and print a \
          provenance narrative")
    Term.(const run $ telemetry_term $ events_file_arg $ node_arg $ failures_arg $ timings_arg)

(* ------------------------------------------------------------------ *)
(* profile *)

let profile_cmd =
  let write_file path contents =
    try
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents);
      Printf.printf "profile: wrote %s\n" path
    with Sys_error m ->
      prerr_endline ("error: cannot write " ^ path ^ ": " ^ m);
      exit 2
  in
  (* A proof-tree node's journal ID, for joining cost data back onto the
     rendered tree (negative IDs are synthetic nodes with no frame). *)
  let node_trace_id (n : Argus.Proof_tree.node) =
    match n.kind with
    | Argus.Proof_tree.Goal g -> g.trace_id
    | Argus.Proof_tree.Cand c -> c.cand_trace_id
  in
  let heat_fn prof (n : Argus.Proof_tree.node) =
    let id = node_trace_id n in
    if id < 0 then None else Profile.heat_of_id prof id
  in
  (* A journal file's first line carries the argus.journal schema tag;
     anything else is treated as L_TRAIT source. *)
  let is_journal_text text =
    let first =
      match String.index_opt text '\n' with
      | Some i -> String.sub text 0 i
      | None -> text
    in
    let needle = "argus.journal" in
    let n = String.length needle and len = String.length first in
    let rec go i =
      i + n <= len && (String.sub first i n = needle || go (i + 1))
    in
    go 0
  in
  let run () file corpus top flame speedscope html_out tree_flag =
    let input =
      match (corpus, file) with
      | Some id, _ -> (
          match Corpus.Suite.find id with
          | None ->
              prerr_endline ("error: unknown corpus entry: " ^ id);
              exit 2
          | Some e -> (
              try `Live (Corpus.Harness.load e)
              with Corpus.Harness.Corpus_error m ->
                prerr_endline ("error: " ^ m);
                exit 2))
      | None, Some path ->
          let text =
            try In_channel.with_open_bin path In_channel.input_all
            with Sys_error m ->
              prerr_endline ("error: " ^ m);
              exit 2
          in
          if is_journal_text text then
            let entries =
              try Argus_json.Journal_codec.of_jsonl text
              with Argus_json.Decode.Decode_error e ->
                Printf.eprintf "error: %s: %s at %s\n" path e.message e.path;
                exit 2
            in
            `Offline entries
          else `Live (or_die (load_program path))
      | None, None ->
          prerr_endline
            "error: need an input: FILE (an L_TRAIT program or an --events-out \
             journal) or --corpus ID";
          exit 2
    in
    let prof, live =
      match input with
      | `Offline entries -> (Profile.of_entries entries, None)
      | `Live program ->
          (* telemetry on, so the solver.solve span is recorded and the
             attributed total can be cross-checked against it below *)
          Telemetry.enable ();
          let report, entries, words =
            Profile.record (fun () -> Solver.Obligations.solve_program program)
          in
          (Profile.of_entries ~words entries, Some (program, report))
    in
    print_string (Profile.top_table ~top prof);
    (* Cross-check: the journal-attributed total should agree with the
       independently clocked solver.solve telemetry span. *)
    (match live with
    | None -> ()
    | Some _ -> (
        let sn = Telemetry.snapshot () in
        match
          List.find_opt
            (fun (h : Telemetry.hist_summary) -> h.hs_name = "solver.solve")
            sn.sn_spans
        with
        | Some h when h.hs_sum_ns > 0 && prof.Profile.total_ns > 0 ->
            let delta =
              100.
              *. (float_of_int prof.Profile.total_ns -. float_of_int h.hs_sum_ns)
              /. float_of_int h.hs_sum_ns
            in
            Printf.printf
              "agreement: profile %s vs solver.solve span %s (delta %+.1f%%)\n"
              (Telemetry.format_ns (float_of_int prof.Profile.total_ns))
              (Telemetry.format_ns (float_of_int h.hs_sum_ns))
              delta
        | _ -> ()));
    let input_name =
      match (corpus, file) with
      | Some id, _ -> id
      | _, Some p -> Filename.basename p
      | _ -> "argus"
    in
    (match flame with
    | None -> ()
    | Some path -> write_file path (Argus_json.Flame.folded (Profile.folded prof)));
    (match speedscope with
    | None -> ()
    | Some path ->
        let events, end_at = Profile.frame_events prof in
        write_file path
          (Argus_json.Json.to_string_pretty
             (Argus_json.Flame.speedscope ~name:input_name ~end_at events)));
    (match (tree_flag, live) with
    | true, Some (_, report) ->
        List.iter
          (fun (r : Solver.Obligations.goal_report) ->
            if r.status <> Solver.Obligations.Proved then begin
              let tree = Argus.Extract.of_report r in
              print_endline
                (Argus.Render.tree_to_string
                   ~annot:(fun n -> Option.map snd (heat_fn prof n))
                   tree);
              print_newline ()
            end)
          report.reports
    | true, None ->
        prerr_endline
          "warning: --tree needs a live input (a program, not a journal); ignored"
    | false, _ -> ());
    match (html_out, live) with
    | Some out, Some (program, report) -> (
        match
          List.find_opt
            (fun (r : Solver.Obligations.goal_report) ->
              r.status <> Solver.Obligations.Proved)
            report.reports
        with
        | None -> prerr_endline "profile: no trait errors — no HTML tree to render"
        | Some r ->
            let tree = Argus.Extract.of_report r in
            let diag =
              Rustc_diag.Diagnostic.to_string
                (Rustc_diag.Diagnostic.of_tree program r.goal tree)
            in
            let html =
              Argus.Html.page
                ~title:(Printf.sprintf "Cost profile of %s" input_name)
                ~heat:(heat_fn prof) ~program ~diagnostic:(Some diag) tree
            in
            write_file out html)
    | Some _, None ->
        prerr_endline
          "warning: --html needs a live input (a program, not a journal); ignored"
    | None, _ -> ()
  in
  let file_opt_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "Input: an L_TRAIT program (solved live, with GC allocation \
             sampling) or a journal written by $(b,--events-out) (attributed \
             offline from its $(b,ts_ns) deltas).")
  in
  let corpus_id_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"ID"
          ~doc:"Profile the bundled corpus entry $(docv) instead of a file.")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Rows in the hot-goal table (default 10).")
  in
  let flame_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flame" ] ~docv:"OUT.folded"
          ~doc:
            "Write a collapsed/folded stack file (one `frame;frame value` line \
             per stack, self time in nanoseconds) for flamegraph.pl or inferno.")
  in
  let speedscope_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "speedscope" ] ~docv:"OUT.json"
          ~doc:"Write an evented speedscope profile, loadable at speedscope.app.")
  in
  let html_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "html" ] ~docv:"OUT.html"
          ~doc:
            "Render the first failing goal's proof tree as HTML with heat \
             overlays: background tint by self time, cost figures per node. \
             Live inputs only.")
  in
  let tree_arg =
    Arg.(
      value & flag
      & info [ "tree" ]
          ~doc:
            "Print each failing goal's proof tree with per-node cost \
             annotations. Live inputs only.")
  in
  let exits =
    Cmd.Exit.info 2 ~doc:"on unreadable or malformed inputs, or unwritable outputs."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "profile" ~exits
       ~doc:
         "Per-goal cost attribution: fold the search journal into a \
          cost-annotated goal tree (self/total wall time, unify attempts, \
          cache hits/misses, sampled GC words) and export it as a hot-goal \
          table, flamegraphs, or a heat-annotated HTML proof tree.")
    Term.(
      const run $ observability_term $ file_opt_arg $ corpus_id_arg $ top_arg
      $ flame_arg $ speedscope_arg $ html_arg $ tree_arg)

(* ------------------------------------------------------------------ *)
(* interactive *)

let interactive_cmd =
  let run () file =
    let program, report = solve_file file in
    match
      List.find_opt
        (fun (r : Solver.Obligations.goal_report) -> r.status <> Solver.Obligations.Proved)
        report.reports
    with
    | None -> print_endline "no trait errors — nothing to debug"
    | Some r ->
        let tree = Argus.Extract.of_report r in
        let vs = ref (Argus.View_state.create tree) in
        let help () =
          print_endline
            "commands: e N (expand row) | c N (collapse row) | h N (hover row) | \
             t N (toggle type ellipsis) | bu | td | rank inertia|depth|vars | \
             paths | all | none | preds | impls N | src N | help | q"
        in
        let render () =
          print_newline ();
          let lines = Argus.Render.view !vs in
          List.iter
            (fun (l : Argus.Render.line) ->
              Printf.printf "%3d %s\n" l.index (Argus.Render.line_to_string l))
            lines;
          match Argus.View_state.minibuffer !vs with
          | [] -> ()
          | paths ->
              print_endline "-- definition paths --";
              List.iter print_endline paths
        in
        (* the row named by user input [n]; [None] for a non-numeric or
           absent row *)
        let node_at n =
          Option.bind (int_of_string_opt n) (fun idx ->
              List.find_opt
                (fun (l : Argus.Render.line) -> l.index = idx)
                (Argus.Render.view !vs))
          |> Option.map (fun (l : Argus.Render.line) -> l.node)
        in
        help ();
        render ();
        let rec loop () =
          print_string "> ";
          match In_channel.input_line stdin with
          | None -> ()
          | Some line -> (
              let parts =
                String.split_on_char ' ' (String.trim line)
                |> List.filter (fun s -> s <> "")
              in
              let with_row n f =
                match node_at n with
                | Some id when id = Argus.Render.others_row ->
                    vs := Argus.View_state.toggle_others !vs;
                    render ()
                | Some id ->
                    vs := f id;
                    render ()
                | None -> print_endline "no such row"
              in
              match parts with
              | [ "q" ] | [ "quit" ] -> ()
              | [ "help" ] ->
                  help ();
                  loop ()
              | [ "e"; n ] ->
                  with_row n (fun id -> Argus.View_state.expand !vs id);
                  loop ()
              | [ "c"; n ] ->
                  with_row n (fun id -> Argus.View_state.collapse !vs id);
                  loop ()
              | [ "h"; n ] ->
                  with_row n (fun id -> Argus.View_state.hover !vs id);
                  loop ()
              | [ "t"; n ] ->
                  with_row n (fun id ->
                      Argus.View_state.toggle_ty_expand !vs id);
                  loop ()
              | [ "rank"; name ] ->
                  (match name with
                  | "inertia" -> vs := Argus.View_state.set_ranker !vs Argus.Heuristics.by_inertia
                  | "depth" -> vs := Argus.View_state.set_ranker !vs Argus.Heuristics.by_depth
                  | "vars" -> vs := Argus.View_state.set_ranker !vs Argus.Heuristics.by_infer_vars
                  | "none" -> vs := Argus.View_state.set_ranker !vs Argus.Heuristics.unsorted
                  | _ -> print_endline "unknown ranker (inertia|depth|vars|none)");
                  render ();
                  loop ()
              | [ "bu" ] ->
                  vs := Argus.View_state.set_direction !vs Argus.View_state.Bottom_up;
                  render ();
                  loop ()
              | [ "td" ] ->
                  vs := Argus.View_state.set_direction !vs Argus.View_state.Top_down;
                  render ();
                  loop ()
              | [ "paths" ] ->
                  vs := Argus.View_state.toggle_paths !vs;
                  render ();
                  loop ()
              | [ "preds" ] ->
                  vs := Argus.View_state.toggle_all_predicates !vs;
                  render ();
                  loop ()
              | [ "all" ] ->
                  vs := Argus.View_state.expand_all !vs;
                  render ();
                  loop ()
              | [ "none" ] ->
                  vs := Argus.View_state.collapse_all !vs;
                  render ();
                  loop ()
              | [ "impls"; n ] ->
                  (match node_at n with
                  | Some id -> (
                      let node = Argus.Proof_tree.node tree id in
                      let trait_ =
                        match node.kind with
                        | Argus.Proof_tree.Goal g ->
                            Trait_lang.Predicate.trait_path g.pred
                        | Argus.Proof_tree.Cand c -> (
                            match c.source with
                            | Solver.Trace.Cand_impl i -> Some i.impl_trait.trait
                            | _ -> None)
                      in
                      match trait_ with
                      | Some t ->
                          List.iter print_endline (Argus.Ctxlinks.impls_of_trait program t)
                      | None -> print_endline "row has no trait")
                  | None -> print_endline "no such row");
                  loop ()
              | [ "src"; n ] ->
                  (match node_at n with
                  | Some id -> (
                      let node = Argus.Proof_tree.node tree id in
                      match Argus.Ctxlinks.span_of_node program node with
                      | Some sp -> print_endline (Trait_lang.Span.to_string sp)
                      | None -> print_endline "no source location")
                  | None -> print_endline "no such row");
                  loop ()
              | _ ->
                  print_endline "unknown command (try: help)";
                  loop ())
        in
        loop ()
  in
  Cmd.v
    (Cmd.info "interactive" ~doc:"Interactively explore the inference tree of a failing goal")
    Term.(const run $ telemetry_term $ file_arg)

(* ------------------------------------------------------------------ *)
(* watch *)

let watch_cmd =
  let run () file interval once =
    let session = Solver.Session.create () in
    (* Returns the check-style exit code for this resolve: 0 clean,
       1 trait/type errors, 2 load error.  A load error mid-watch keeps
       the last good program loaded. *)
    let resolve ~first () =
      match load_program file with
      | Error m ->
          Printf.printf "%s: load error (session state kept)\n  %s\n%!" file m;
          2
      | Ok program ->
          let t0 = Unix.gettimeofday () in
          ignore (Solver.Session.edit session program);
          let report = Solver.Session.resolve session in
          let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
          let errors = Solver.Session.errors session in
          Printf.printf "%s: %d goals, %d error%s in %.1f ms\n" file
            (List.length report.Solver.Obligations.reports)
            (List.length errors)
            (if List.length errors = 1 then "" else "s")
            ms;
          if first then print_string "  initial load (cold resolve)\n";
          List.iter
            (fun (r : Solver.Obligations.goal_report) ->
              print_string
                (Rustc_diag.Diagnostic.to_string
                   (Rustc_diag.Diagnostic.of_tree program r.goal
                      (Argus.Extract.of_report r))))
            errors;
          print_string "\n";
          flush stdout;
          if errors = [] then 0 else 1
    in
    let code = resolve ~first:true () in
    if once then exit code;
    let mtime () = try Some (Unix.stat file).Unix.st_mtime with Unix.Unix_error _ -> None in
    let rec loop last =
      Unix.sleepf interval;
      let m = mtime () in
      if m <> last then ignore (resolve ~first:false ());
      loop m
    in
    loop (mtime ())
  in
  let interval_arg =
    Arg.(
      value & opt float 0.5
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Poll period for modification-time changes.")
  in
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Load, resolve, report, and exit with $(b,argus check)-style codes \
             instead of watching — the non-interactive smoke path.")
  in
  let exits =
    Cmd.Exit.info 1 ~doc:"with $(b,--once), on trait or type errors."
    :: Cmd.Exit.info 2 ~doc:"with $(b,--once), on parse, name-resolution, or I/O errors."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "watch" ~exits
       ~doc:
         "Re-solve $(i,FILE) on every change through one persistent solving \
          session: each save is re-parsed and solved again from scratch. \
          Prints rustc-style diagnostics after every resolve.")
    Term.(const run $ telemetry_term $ file_arg $ interval_arg $ once_arg)

(* ------------------------------------------------------------------ *)
(* serve *)

let serve_cmd =
  let run () socket tcp =
    let server = Serve.Server.create () in
    (* One connection's read loop: newline-delimited JSON-RPC in, one
       response line (flushed) per request out.  Returns when the peer
       closes or a [shutdown] lands. *)
    let serve_channel ic oc =
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
            (match Serve.Server.handle_line server line with
            | Some resp ->
                output_string oc resp;
                output_char oc '\n';
                flush oc
            | None -> ());
            if not (Serve.Server.shutting_down server) then loop ()
      in
      loop ()
    in
    let listen_loop sock cleanup =
      let rec accept_loop () =
        if not (Serve.Server.shutting_down server) then begin
          let fd, _ = Unix.accept sock in
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          (try serve_channel ic oc with End_of_file | Sys_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ());
          accept_loop ()
        end
      in
      accept_loop ();
      (try Unix.close sock with Unix.Unix_error _ -> ());
      cleanup ();
      exit 0
    in
    match (socket, tcp) with
    | Some _, Some _ ->
        prerr_endline "error: --socket and --tcp are mutually exclusive";
        exit 2
    | None, None ->
        serve_channel stdin stdout;
        exit 0
    | Some path, None ->
        if Sys.file_exists path then Sys.remove path;
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind sock (Unix.ADDR_UNIX path);
        Unix.listen sock 8;
        Printf.eprintf "argus serve: listening on %s\n%!" path;
        listen_loop sock (fun () -> try Sys.remove path with Sys_error _ -> ())
    | None, Some port ->
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt sock Unix.SO_REUSEADDR true;
        Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.listen sock 8;
        Printf.eprintf "argus serve: listening on 127.0.0.1:%d\n%!" port;
        listen_loop sock (fun () -> ())
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix domain socket at $(docv) (sequential accept \
             loop; sessions persist across connections) instead of stdio.")
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:"Listen on 127.0.0.1:$(docv) instead of stdio.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent session daemon: newline-delimited JSON-RPC 2.0 \
          over stdio (default), a Unix socket, or TCP. Verbs: open, reload, \
          solve, tree, expand, hover, explain, profile, shutdown. Every \
          solve records the search journal and so runs without the \
          evaluation cache; solve/tree/explain responses are \
          byte-identical to the equivalent one-shot subcommand. See \
          docs/SERVE.md.")
    Term.(const run $ observability_term $ socket_arg $ tcp_arg)

(* ------------------------------------------------------------------ *)
(* fuzz *)

let fuzz_cmd =
  let parse_oracles names =
    match names with
    | [] -> Fuzz.Oracle.all
    | names ->
        List.map
          (fun n ->
            match Fuzz.Oracle.of_string n with
            | Some o -> o
            | None ->
                Printf.eprintf "error: unknown oracle %S (known: %s)\n" n
                  (String.concat ", " (List.map Fuzz.Oracle.to_string Fuzz.Oracle.all));
                exit 2)
          names
  in
  let run () iters seed oracle_names shrink size out replay =
    let oracles = parse_oracles oracle_names in
    match replay with
    | Some path ->
        if not (Sys.file_exists path) then begin
          Printf.eprintf "error: no such file: %s\n" path;
          exit 2
        end;
        let verdicts = Fuzz.Driver.replay ~oracles ~path () in
        let failed = ref 0 in
        List.iter
          (fun (name, v) ->
            match v with
            | Fuzz.Oracle.Pass -> Printf.printf "%-12s pass\n" (Fuzz.Oracle.to_string name)
            | Fuzz.Oracle.Fail m ->
                incr failed;
                Printf.printf "%-12s FAIL  %s\n" (Fuzz.Oracle.to_string name) m)
          verdicts;
        exit (if !failed > 0 then 1 else 0)
    | None ->
        let iters = max 0 iters in
        let outcome =
          Fuzz.Driver.run ~out_dir:out ~shrink ~size
            ~progress:(fun line -> Printf.eprintf "%s\n%!" line)
            ~oracles ~iters ~seed ()
        in
        (match outcome.o_counterexample with
        | None ->
            Printf.printf
              "fuzz: %d iterations x %d oracles (%s), %d checks, 0 counterexamples\n"
              outcome.o_iters (List.length oracles)
              (String.concat ", " (List.map Fuzz.Oracle.to_string oracles))
              outcome.o_checks;
            exit 0
        | Some cx ->
            Printf.printf "fuzz: counterexample at iteration %d (oracle %s)\n"
              cx.cx_iter
              (Fuzz.Oracle.to_string cx.cx_oracle);
            Printf.printf "  %s\n" cx.cx_message;
            Printf.printf "  %d declaration(s) after %s\n" cx.cx_decls
              (if shrink then "shrinking" else "no shrinking (--shrink to minimize)");
            (match cx.cx_file with
            | Some f -> Printf.printf "  repro written to %s\n" f
            | None -> ());
            exit 1)
  in
  let iters_arg =
    Arg.(
      value & opt int 100
      & info [ "iters" ] ~docv:"N"
          ~doc:"Number of generated programs ($(b,--iters 0) is a clean no-op).")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Campaign seed; iteration $(i,i) depends only on (seed, i, size).")
  in
  let oracle_arg =
    Arg.(
      value & opt_all string []
      & info [ "oracle" ] ~docv:"NAME"
          ~doc:
            "Oracle(s) to run (repeatable; default: all). Known: wellformed, \
             cache, journal, roundtrip, determinism, serve.")
  in
  let shrink_arg =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"Greedily minimize a counterexample before reporting it.")
  in
  let size_arg =
    Arg.(
      value & opt int Fuzz.Gen.default_size
      & info [ "size" ] ~docv:"K" ~doc:"Program size knob, 1 (tiny) to 4 (large).")
  in
  let out_arg =
    Arg.(
      value & opt string "fuzz-repros"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory (created if missing) for counterexample repro files.")
  in
  let replay_arg =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Re-run the oracle matrix over a saved repro instead of generating.")
  in
  let exits =
    Cmd.Exit.info 1 ~doc:"when a counterexample is found (or a replayed repro still fails)."
    :: Cmd.Exit.info 2 ~doc:"on usage or I/O errors."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "fuzz" ~exits
       ~doc:
         "Generative differential testing: random well-formed L_TRAIT programs \
          solved several ways (cache on/off, journal replay, \
          print/re-parse, repeated runs, live serve) that must agree. Writes a \
          replayable $(i,.trait) repro and exits 1 on a counterexample.")
    Term.(
      const run $ observability_term $ iters_arg $ seed_arg $ oracle_arg $ shrink_arg
      $ size_arg $ out_arg $ replay_arg)

(* ------------------------------------------------------------------ *)
(* bench *)

(* [argus bench serve]: the in-process serve load generator, as a
   self-checking gate — exits 1 when any request errors or when any
   solve consulted the evaluation cache (every serve solve records a
   journal, and a recording solve must not touch the cache).  The full
   BENCH_pipeline.json section is written by the bench harness
   ([make bench-serve]). *)
let bench_serve_cmd =
  let run clients seed programs =
    List.iter
      (fun (flag, n) ->
        if n < 1 then begin
          Printf.eprintf "error: %s must be at least 1 (got %d)\n" flag n;
          exit 2
        end)
      [ ("--clients", clients); ("--programs", programs) ];
    let stats = Fuzz.Serve_load.run ~programs ~clients ~seed () in
    Printf.printf "serve load: %d clients x 2-phase session script (seed %d)\n"
      stats.Fuzz.Serve_load.ls_clients seed;
    Printf.printf "  requests    %d (%d errors)\n" stats.Fuzz.Serve_load.ls_requests
      stats.Fuzz.Serve_load.ls_errors;
    Printf.printf "  wall        %.2f ms\n"
      (float_of_int stats.Fuzz.Serve_load.ls_wall_ns /. 1e6);
    Printf.printf "  throughput  %.0f req/s\n" stats.Fuzz.Serve_load.ls_throughput_rps;
    Printf.printf "  latency     p50 %.1f us, p99 %.1f us\n"
      (float_of_int stats.Fuzz.Serve_load.ls_p50_ns /. 1e3)
      (float_of_int stats.Fuzz.Serve_load.ls_p99_ns /. 1e3);
    Printf.printf "  cache       %d lookups\n" stats.Fuzz.Serve_load.ls_cache_lookups;
    if stats.Fuzz.Serve_load.ls_errors > 0 then begin
      Printf.eprintf "error: %d request(s) answered with a JSON-RPC error\n"
        stats.Fuzz.Serve_load.ls_errors;
      exit 1
    end;
    if stats.Fuzz.Serve_load.ls_cache_lookups > 0 then begin
      Printf.eprintf
        "error: %d evaluation-cache lookup(s) under serve — a journaled solve must \
         not consult the cache\n"
        stats.Fuzz.Serve_load.ls_cache_lookups;
      exit 1
    end
  in
  let clients_arg =
    Arg.(
      value & opt int 1000
      & info [ "clients" ] ~docv:"N" ~doc:"Number of client session scripts (at least 1).")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"Seed for the generated program pool.")
  in
  let programs_arg =
    Arg.(
      value & opt int 8
      & info [ "programs" ] ~docv:"N"
          ~doc:"Size of the generated program pool clients draw from (at least 1).")
  in
  let exits =
    Cmd.Exit.info 1
      ~doc:"when a request errors or any solve consulted the evaluation cache."
    :: Cmd.Exit.info 2 ~doc:"when $(b,--clients) or $(b,--programs) is below 1."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Replay seeded concurrent session scripts (open/solve/tree/expand/hover/\
          explain/reload) against an in-process serve daemon and report throughput, \
          latency percentiles, and evaluation-cache lookups (expected: none).")
    Term.(const run $ clients_arg $ seed_arg $ programs_arg)

let bench_cmd =
  Cmd.group
    (Cmd.info "bench" ~doc:"In-process load benchmarks (see also $(b,make bench).)")
    [ bench_serve_cmd ]

(* ------------------------------------------------------------------ *)

let version = "1.9.0"

(* With no subcommand: honour -V (short for the auto-generated
   --version), otherwise show the help page. *)
let default_term =
  let v_flag =
    Arg.(value & flag & info [ "V" ] ~doc:"Print version information (same as --version).")
  in
  Term.(
    ret
      (const (fun v -> if v then `Ok (print_endline version) else `Help (`Pager, None))
      $ v_flag))

let main =
  Cmd.group ~default:default_term
    (Cmd.info "argus" ~version
       ~doc:"An interactive debugger for trait errors (PLDI 2025 reproduction)")
    [
      check_cmd;
      bottom_up_cmd;
      top_down_cmd;
      diag_cmd;
      inertia_cmd;
      json_cmd;
      html_cmd;
      dot_cmd;
      corpus_cmd;
      study_cmd;
      explain_cmd;
      profile_cmd;
      interactive_cmd;
      watch_cmd;
      serve_cmd;
      fuzz_cmd;
      bench_cmd;
    ]

let () = exit (Cmd.eval main)

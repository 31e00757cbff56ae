(** The benchmark harness: one section per paper table/figure, plus
    ablations of design choices called out in DESIGN.md.

    Run with: [dune exec bench/main.exe]

    Sections:
    - Fig 2b / 3b / 4b: the three motivating diagnostics, regenerated;
    - Fig 9 / 10: the Bevy views and the inertia pipeline;
    - Fig 11: the (simulated) user study with all reported statistics;
    - Fig 12a: distance-to-root-cause, inertia vs baselines vs rustc;
    - Fig 12b: DNF normalization time vs inference-tree size;
    - ablations: eager vs lazy DNF minimization (Bechamel), solver
      depth-limit sweep, end-to-end solve cost per corpus program,
      heuristic ranking cost, inertia weight sensitivity. *)

open Trait_lang
module Json = Argus_json.Json

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let now_ns () = Monotonic_clock.clock_linux_get_time ()

(* Defaults overridable from the command line: [--runs N] (CI smoke uses
   [--runs 1]) and [--warmup N]. *)
let bench_runs = ref 21
let bench_warmup = ref 3

(** Median wall-clock nanoseconds of [f] over [runs] timed runs, after
    [warmup] untimed runs (fills icache/branch predictors and — for the
    solver — the evaluation cache, so timed runs measure steady state). *)
let time_median ?runs ?warmup f =
  let runs = Option.value runs ~default:!bench_runs in
  let warmup = Option.value warmup ~default:!bench_warmup in
  for _ = 1 to warmup do
    ignore (Sys.opaque_identity (f ()))
  done;
  let samples =
    List.init runs (fun _ ->
        let t0 = now_ns () in
        ignore (Sys.opaque_identity (f ()));
        Int64.to_float (Int64.sub (now_ns ()) t0))
  in
  Stats.Descriptive.median samples

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing *)

let run_bechamel ?(quota = 0.3) (tests : Bechamel.Test.t) =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> Float.nan
        in
        (name, est) :: acc)
      results []
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) rows

let print_bechamel_rows rows =
  List.iter
    (fun (name, ns) ->
      if ns < 1e3 then Printf.printf "  %-52s %8.1f ns/run\n" name ns
      else if ns < 1e6 then Printf.printf "  %-52s %8.2f us/run\n" name (ns /. 1e3)
      else Printf.printf "  %-52s %8.2f ms/run\n" name (ns /. 1e6))
    rows

(* ------------------------------------------------------------------ *)
(* Fig 2b / 3b / 4b: the motivating diagnostics *)

let fig_motivating () =
  section "Fig 2b / 3b / 4b — motivating diagnostics (baseline renderer)";
  List.iter
    (fun id ->
      let e = Option.get (Corpus.Suite.find id) in
      let program, tree = Corpus.Harness.failed_tree e in
      let goal = List.hd (Program.goals program) in
      Printf.printf "\n--- %s ---\n" e.title;
      print_string
        (Rustc_diag.Diagnostic.to_string (Rustc_diag.Diagnostic.of_tree program goal tree)))
    [ "diesel-missing-join"; "ast-overflow"; "bevy-errant-param" ]

(* ------------------------------------------------------------------ *)
(* Fig 9 / 10: the Bevy views and the inertia pipeline *)

let fig_bevy_views () =
  section "Fig 9 / 10 — Argus views and the inertia pipeline on Bevy";
  let e = Option.get (Corpus.Suite.find "bevy-errant-param") in
  let _, tree = Corpus.Harness.failed_tree e in
  print_endline "\nBottom-up (Fig 9a):";
  print_endline (Argus.Render.tree_to_string ~direction:Argus.View_state.Bottom_up tree);
  print_endline "\nInertia pipeline (Fig 10):";
  let ranking = Argus.Inertia.rank tree in
  List.iter
    (fun (s : Argus.Inertia.scored_set) ->
      Printf.printf "  MCS score %2d: %s\n" s.total
        (String.concat " & "
           (List.map
              (fun (p, _, _, w) -> Printf.sprintf "%s [w=%d]" (Pretty.predicate p) w)
              s.predicates)))
    ranking.sets

(* ------------------------------------------------------------------ *)
(* Fig 11: the user study *)

let fig11 () =
  section "Fig 11 — user study (simulated participants, N=25, seed 42)";
  let d = Study.Simulate.run ~seed:42 () in
  print_endline (Study.Analyze.to_string (Study.Analyze.analyze d));
  print_endline "\npaper reference: loc 84% vs 38% (chi=22.24); loc time 3m03s vs 9m58s";
  print_endline "                 fix 50% vs 32% (chi=3.35);  fix time 8m07s vs 10m00s";
  print_endline "\nper-task breakdown:";
  print_endline (Study.Analyze.per_task_to_string (Study.Analyze.per_task d))

(* ------------------------------------------------------------------ *)
(* Fig 12a: distance to the root cause *)

let fig12a () =
  section "Fig 12a — distance from the report to the root cause (17-program suite)";
  let rankers = Argus.Heuristics.all in
  let rows =
    List.map
      (fun (e : Corpus.Harness.entry) ->
        let program, tree = Corpus.Harness.failed_tree e in
        let rc = Corpus.Harness.root_cause_pred e in
        let heuristic_ranks =
          List.map
            (fun (r : Argus.Heuristics.ranker) ->
              Option.value ~default:(-1)
                (Argus.Heuristics.rank_of_root_cause r tree ~root_cause:rc))
            rankers
        in
        let goal = List.hd (Program.goals program) in
        let diag = Rustc_diag.Diagnostic.of_tree program goal tree in
        let rustc =
          Option.value ~default:(-1)
            (Rustc_diag.Diagnostic.distance_to_root_cause tree diag ~root_cause:rc)
        in
        (e.id, heuristic_ranks @ [ rustc ]))
      Corpus.Suite.entries
  in
  let headers =
    List.map (fun (r : Argus.Heuristics.ranker) -> r.name) rankers @ [ "rustc" ]
  in
  Printf.printf "%-28s" "program";
  List.iter (Printf.printf " %19s") headers;
  print_newline ();
  List.iter
    (fun (id, vals) ->
      Printf.printf "%-28s" id;
      List.iter (Printf.printf " %19d") vals;
      print_newline ())
    rows;
  (* medians, the §5.2.2 headline: 0 / 1 / 1 / 2 in the paper *)
  let columns = List.length headers in
  Printf.printf "%-28s" "MEDIAN";
  for c = 0 to columns - 1 do
    let col = List.map (fun (_, vals) -> float_of_int (List.nth vals c)) rows in
    Printf.printf " %19.1f" (Stats.Descriptive.median col)
  done;
  print_newline ();
  print_endline "paper medians: inertia 0, predicate depth 1, inference vars 1, rustc 2"

(* ------------------------------------------------------------------ *)
(* Fig 12b: DNF normalization time vs tree size *)

let fig12b () =
  section "Fig 12b — DNF normalization time vs inference-tree size";
  (* the corpus trees (the paper's real data points)... *)
  let corpus_points =
    List.map
      (fun (e : Corpus.Harness.entry) ->
        let _, tree = Corpus.Harness.failed_tree e in
        (e.id, tree))
      Corpus.Suite.entries
  in
  (* ...plus synthetic trees up to the paper's max of 36,794 nodes *)
  let synthetic_points =
    List.map
      (fun n -> (Printf.sprintf "synthetic-%d" n, Argus.Synthetic.of_size n))
      [ 10; 100; 500; 1000; 2554; 5000; 10000; 20000; 36794 ]
  in
  Printf.printf "%-28s %10s %12s %10s\n" "tree" "goals" "time" "conjuncts";
  let times = ref [] in
  List.iter
    (fun (name, tree) ->
      let goals = Argus.Proof_tree.goal_count tree in
      let dnf_of () =
        let f, _ = Argus.Formula.of_tree tree in
        Argus.Dnf.of_formula f
      in
      let ns = time_median dnf_of in
      times := (goals, ns) :: !times;
      let d = dnf_of () in
      Printf.printf "%-28s %10d %10.3fms %10d\n" name goals (ns /. 1e6)
        (Argus.Dnf.num_conjuncts d))
    (corpus_points @ synthetic_points);
  let ms = List.map (fun (_, ns) -> ns /. 1e6) !times in
  Printf.printf
    "median %.3fms, max %.3fms (paper: median 0.1ms, max 6.1ms; trees 1..36,794 nodes)\n"
    (Stats.Descriptive.median ms)
    (snd (Stats.Descriptive.min_max ms))

(* ------------------------------------------------------------------ *)
(* Ablations *)

let ablation_dnf_minimization () =
  section "Ablation — eager vs lazy DNF minimization (Bechamel)";
  let tree = Argus.Synthetic.of_size 2554 in
  let f, _ = Argus.Formula.of_tree tree in
  let open Bechamel in
  let tests =
    Test.make_grouped ~name:"dnf"
      [
        Test.make ~name:"minimize-eagerly" (Staged.stage (fun () -> Argus.Dnf.of_formula f));
        Test.make ~name:"minimize-at-end"
          (Staged.stage (fun () ->
               Argus.Dnf.of_formula ~cfg:{ Argus.Dnf.minimize_eagerly = false } f));
      ]
  in
  print_bechamel_rows (run_bechamel tests)

let ablation_solver_cost () =
  section "Ablation — end-to-end solve cost per corpus program (Bechamel)";
  let open Bechamel in
  let tests =
    Test.make_grouped ~name:"solve"
      (List.filter_map
         (fun id ->
           Option.map
             (fun (e : Corpus.Harness.entry) ->
               let program = Corpus.Harness.load e in
               Test.make ~name:e.id
                 (Staged.stage (fun () -> Solver.Obligations.solve_program program)))
             (Corpus.Suite.find id))
         [ "diesel-missing-join"; "bevy-errant-param"; "axum-body-first"; "ast-overflow" ])
  in
  print_bechamel_rows (run_bechamel tests)

let ablation_depth_limit () =
  section "Ablation — solver depth-limit sweep on a growing recursion";
  let src =
    "struct A; struct W<X>; trait T {} impl<X> T for W<X> where W<W<X>>: T {} goal W<A>: T;"
  in
  let program = Resolve.program_of_string ~file:"sweep.rs" src in
  List.iter
    (fun depth_limit ->
      let cfg = { Solver.Solve.depth_limit } in
      let ns = time_median (fun () -> Solver.Obligations.solve_program ~cfg program) in
      let report = Solver.Obligations.solve_program ~cfg program in
      let tree_size = Solver.Trace.size (List.hd report.reports).final in
      Printf.printf "  depth limit %3d: tree %5d nodes, %8.3f ms\n" depth_limit tree_size
        (ns /. 1e6))
    [ 8; 16; 24; 32; 48 ]

let ablation_ranking_cost () =
  section "Ablation — ranking-heuristic cost on the Bevy tree (Bechamel)";
  let e = Option.get (Corpus.Suite.find "bevy-errant-param") in
  let _, tree = Corpus.Harness.failed_tree e in
  let open Bechamel in
  let tests =
    Test.make_grouped ~name:"rank"
      (List.map
         (fun (r : Argus.Heuristics.ranker) ->
           Test.make ~name:r.name (Staged.stage (fun () -> r.rank tree)))
         Argus.Heuristics.all)
  in
  print_bechamel_rows (run_bechamel tests)

let ablation_inertia_weight_sensitivity () =
  section "Ablation — ranking quality over the suite (median/mean root-cause rank)";
  let invert : Argus.Heuristics.ranker =
    { name = "inertia inverted"; rank = (fun tree -> List.rev (Argus.Heuristics.by_inertia.rank tree)) }
  in
  let rankers = Argus.Heuristics.all @ [ invert; Argus.Heuristics.unsorted ] in
  List.iter
    (fun (r : Argus.Heuristics.ranker) ->
      let ranks =
        List.map
          (fun (e : Corpus.Harness.entry) ->
            let _, tree = Corpus.Harness.failed_tree e in
            let rc = Corpus.Harness.root_cause_pred e in
            float_of_int
              (Option.value ~default:99
                 (Argus.Heuristics.rank_of_root_cause r tree ~root_cause:rc)))
          Corpus.Suite.entries
      in
      Printf.printf "  %-22s median rank %4.1f   mean rank %5.2f\n" r.name
        (Stats.Descriptive.median ranks)
        (Stats.Descriptive.mean ranks))
    rankers

(* ------------------------------------------------------------------ *)
(* BENCH_pipeline.json: the machine-readable end-to-end numbers *)

(** The commit the numbers were measured at, straight from [.git] (the
    bench runs from the repo root; no subprocess).  "unknown" outside a
    work tree. *)
let git_commit () =
  let first_line path =
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> String.trim (input_line ic))
  in
  let packed_ref r =
    let ic = open_in ".git/packed-refs" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          let line = input_line ic in
          match String.index_opt line ' ' with
          | Some i when String.sub line (i + 1) (String.length line - i - 1) = r ->
              String.sub line 0 i
          | _ -> scan ()
        in
        scan ())
  in
  try
    let head = first_line ".git/HEAD" in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then begin
      let r = String.sub head 5 (String.length head - 5) in
      try first_line (Filename.concat ".git" r)
      with Sys_error _ | End_of_file -> ( try packed_ref r with _ -> "unknown")
    end
    else head
  with Sys_error _ | End_of_file -> "unknown"

(** Journal overhead per corpus program: the disabled sink (every
    emission point is one load + branch) vs streaming JSONL entries to
    /dev/null.  The disabled medians must be indistinguishable from the
    plain pipeline entries; the enabled cost is dominated by JSON
    encoding.  The evaluation cache is off for both sides: a recording
    solve never consults it, so leaving it on would bill the disabled
    runs' cache savings to the journal. *)
let bench_journal_entries () =
  Printf.printf "  %-28s %12s %12s %8s %9s\n" "program" "disabled" "enabled" "events"
    "overhead";
  Solver.Eval_cache.set_enabled false;
  let rows =
  List.map
    (fun (e : Corpus.Harness.entry) ->
      let program = Corpus.Harness.load e in
      let ns_disabled =
        time_median (fun () -> Solver.Obligations.solve_program program)
      in
      let devnull = open_out "/dev/null" in
      Journal.set_sink
        (Some
           (fun en ->
             output_string devnull
               (Json.to_string (Argus_json.Journal_codec.entry_to_json en));
             output_char devnull '\n'));
      let ns_enabled =
        time_median (fun () -> Solver.Obligations.solve_program program)
      in
      Journal.set_sink None;
      close_out devnull;
      let events = ref 0 in
      Journal.set_sink (Some (fun _ -> incr events));
      ignore (Solver.Obligations.solve_program program);
      Journal.set_sink None;
      let overhead_pct = (ns_enabled -. ns_disabled) /. ns_disabled *. 100.0 in
      Printf.printf "  %-28s %9.2f us %9.2f us %8d %+8.1f%%\n" e.id (ns_disabled /. 1e3)
        (ns_enabled /. 1e3) !events overhead_pct;
      Json.Obj
        [
          ("name", Json.String e.id);
          ("ns_disabled", Json.Float ns_disabled);
          ("ns_enabled", Json.Float ns_enabled);
          ("events", Json.Int !events);
          ("overhead_pct", Json.Float overhead_pct);
        ])
    Corpus.Suite.entries
  in
  Solver.Eval_cache.set_enabled true;
  rows

(** Median cache speedup over the diesel_lite rows of a cache section —
    the paper-facing headline recorded at the top of the document. *)
let diesel_median rows =
  let speedups =
    List.filter_map
      (fun row ->
        match (Json.member "library" row, Json.member "speedup" row) with
        | Some (Json.String "diesel_lite"), Some (Json.Float s) -> Some s
        | Some (Json.String "diesel_lite"), Some (Json.Int s) -> Some (float_of_int s)
        | _ -> None)
      rows
  in
  if speedups = [] then 0.0 else Stats.Descriptive.median speedups

(** Evaluation-cache on/off comparison per 17-program suite entry.  The
    program is loaded once, so its interner stamp is stable and warm-up
    runs on the "on" side populate the cache the timed runs then hit.
    Hit/miss counters come from one extra telemetry-counted run against
    the warm cache. *)
let bench_cache_entries () =
  Printf.printf "  %-28s %12s %12s %8s %7s %7s\n" "program" "cache off" "cache on"
    "speedup" "hits" "misses";
  let rows =
    List.map
      (fun (e : Corpus.Harness.entry) ->
        let program = Corpus.Harness.load e in
        Solver.Eval_cache.set_enabled false;
        let ns_off = time_median (fun () -> Solver.Obligations.solve_program program) in
        Solver.Eval_cache.set_enabled true;
        Solver.Eval_cache.clear ();
        let ns_on = time_median (fun () -> Solver.Obligations.solve_program program) in
        Telemetry.reset ();
        Telemetry.enable ();
        ignore (Solver.Obligations.solve_program program);
        Telemetry.disable ();
        let tree_hits = Telemetry.counter_value "cache.tree.hits" in
        let tree_misses = Telemetry.counter_value "cache.tree.misses" in
        let result_hits = Telemetry.counter_value "cache.result.hits" in
        let result_misses = Telemetry.counter_value "cache.result.misses" in
        let hits = tree_hits + result_hits and misses = tree_misses + result_misses in
        let hit_rate =
          if hits + misses = 0 then 0.0
          else float_of_int hits /. float_of_int (hits + misses)
        in
        let speedup = ns_off /. ns_on in
        Printf.printf "  %-28s %9.2f us %9.2f us %7.2fx %7d %7d\n" e.id (ns_off /. 1e3)
          (ns_on /. 1e3) speedup hits misses;
        Json.Obj
            [
              ("name", Json.String e.id);
              ("library", Json.String e.library);
              ("ns_cache_off", Json.Float ns_off);
              ("ns_cache_on", Json.Float ns_on);
              ("speedup", Json.Float speedup);
              ("tree_hits", Json.Int tree_hits);
              ("tree_misses", Json.Int tree_misses);
              ("result_hits", Json.Int result_hits);
              ("result_misses", Json.Int result_misses);
              ("hit_rate", Json.Float hit_rate);
            ])
      Corpus.Suite.entries
  in
  Printf.printf "  diesel_lite median speedup: %.2fx\n" (diesel_median rows);
  rows

(** Differential-fuzzing throughput: generation+render cost, then the
    per-program cost of each oracle over a fixed bank of generated
    programs (seed 42, the CI campaign seed).  Costs here bound the
    wall-clock budget of [argus fuzz] and the CI fuzz-smoke step. *)
let bench_fuzz_entries () =
  let bank_size = 10 in
  let seed = 42 in
  let sources =
    List.init bank_size (fun iter ->
        Fuzz.Gen.render (Fuzz.Gen.generate ~seed ~iter ~size:Fuzz.Gen.default_size))
  in
  let ns_gen =
    time_median (fun () ->
        List.init bank_size (fun iter ->
            Fuzz.Gen.render (Fuzz.Gen.generate ~seed ~iter ~size:Fuzz.Gen.default_size)))
    /. float_of_int bank_size
  in
  Printf.printf "  %-12s %9.2f us/program\n" "generate" (ns_gen /. 1e3);
  let gen_row =
    Json.Obj
      [
        ("stage", Json.String "generate");
        ("programs", Json.Int bank_size);
        ("ns_per_program", Json.Float ns_gen);
      ]
  in
  let oracle_row name =
    let ns =
      time_median (fun () ->
          List.iter
            (fun source ->
              match Fuzz.Oracle.check name ~source with
              | Fuzz.Oracle.Pass -> ()
              | Fuzz.Oracle.Fail m ->
                  failwith (Fuzz.Oracle.to_string name ^ " counterexample: " ^ m))
            sources)
      /. float_of_int bank_size
    in
    Printf.printf "  %-12s %9.2f us/check\n" (Fuzz.Oracle.to_string name) (ns /. 1e3);
    Json.Obj
      [
        ("stage", Json.String (Fuzz.Oracle.to_string name));
        ("programs", Json.Int bank_size);
        ("ns_per_program", Json.Float ns);
      ]
  in
  gen_row :: List.map oracle_row Fuzz.Oracle.all

(** The [scale] suite: front-end and per-goal solve cost over generated
    mega libraries ({!Fuzz.Gen.generate_mega}) at growing impl counts.
    Parse and lower are per KB of source, flat for a linear front end.
    The solve runs cache off so every goal re-runs candidate assembly.
    Unify attempts per goal stay flat as the library grows: fast reject
    drops head-incompatible impls before any unification, so the
    per-goal cost that grows with the library is the linear
    simplify-and-skip pass, never unifications. *)
let bench_scale_entries () =
  let goals = 32 and seed = 42 in
  let fg = float_of_int goals in
  Printf.printf "  %-8s %12s %12s %12s %14s %9s\n" "impls" "parse/KB" "lower/KB" "per goal"
    "attempts/goal" "rejects";
  Solver.Eval_cache.set_enabled false;
  let rows =
    List.map
      (fun impls ->
        let src = Fuzz.Gen.render (Fuzz.Gen.generate_mega ~goals ~seed ~impls) in
        let kb = float_of_int (String.length src) /. 1024.0 in
        let parse () = Parser.parse ~file:"scale.trait" src in
        let parse_ns = time_median parse /. kb in
        let ast = parse () in
        let lower_ns = time_median (fun () -> Resolve.lower ast) /. kb in
        let program = Resolve.lower ast in
        let ns = time_median (fun () -> Solver.Obligations.solve_program program) /. fg in
        Telemetry.reset ();
        Telemetry.enable ();
        ignore (Solver.Obligations.solve_program program);
        Telemetry.disable ();
        let attempts = float_of_int (Telemetry.counter_value "unify.attempts") /. fg in
        let hits = Telemetry.counter_value "index.hits" in
        let rejects = Telemetry.counter_value "index.rejects" in
        let reject_rate =
          if hits + rejects = 0 then 0.0
          else float_of_int rejects /. float_of_int (hits + rejects)
        in
        Printf.printf "  %-8d %9.2f us %9.2f us %9.2f us %14.1f %8.0f%%\n" impls
          (parse_ns /. 1e3) (lower_ns /. 1e3) (ns /. 1e3) attempts (reject_rate *. 100.0);
        Json.Obj
          [
            ("impls", Json.Int impls);
            ("goals", Json.Int goals);
            ("parse_ns_per_kb", Json.Float parse_ns);
            ("lower_ns_per_kb", Json.Float lower_ns);
            ("ns_per_goal", Json.Float ns);
            ("unify_attempts_per_goal", Json.Float attempts);
            ("index_hits", Json.Int hits);
            ("index_rejects", Json.Int rejects);
            ("index_wildcard", Json.Int (Telemetry.counter_value "index.wildcard"));
            ("reject_rate", Json.Float reject_rate);
          ])
      [ 100; 1000; 10000 ]
  in
  Solver.Eval_cache.set_enabled true;
  rows

(** The [serve] suite: the seeded load generator ({!Fuzz.Serve_load})
    replays 1000 clients' two-phase session scripts — cold open+solve,
    then warm tree/expand/hover/explain plus an edited reload and
    re-solve — against one long-lived in-process server.  Every serve
    solve records a journal, so the run makes no evaluation-cache
    lookups; [cache_lookups] must read 0. *)
let bench_serve_entries () =
  let seed = 42 and clients = 1000 in
  Printf.printf "  %-10s %8s %9s %14s %12s %12s %8s\n" "name" "clients"
    "requests" "throughput" "p50" "p99" "lookups";
  let row name =
    let stats = Fuzz.Serve_load.run ~clients ~seed () in
    Printf.printf
      "  %-10s %8d %9d %10.0f rps %9.1f us %9.1f us %8d\n" name
      stats.Fuzz.Serve_load.ls_clients stats.Fuzz.Serve_load.ls_requests
      stats.Fuzz.Serve_load.ls_throughput_rps
      (float_of_int stats.Fuzz.Serve_load.ls_p50_ns /. 1e3)
      (float_of_int stats.Fuzz.Serve_load.ls_p99_ns /. 1e3)
      stats.Fuzz.Serve_load.ls_cache_lookups;
    Json.Obj
      [
        ("name", Json.String name);
        ("clients", Json.Int stats.Fuzz.Serve_load.ls_clients);
        ("requests", Json.Int stats.Fuzz.Serve_load.ls_requests);
        ("errors", Json.Int stats.Fuzz.Serve_load.ls_errors);
        ( "throughput_rps",
          Json.Float stats.Fuzz.Serve_load.ls_throughput_rps );
        ("p50_ns", Json.Int stats.Fuzz.Serve_load.ls_p50_ns);
        ("p99_ns", Json.Int stats.Fuzz.Serve_load.ls_p99_ns);
        ("cache_lookups", Json.Int stats.Fuzz.Serve_load.ls_cache_lookups);
      ]
  in
  let rows = [ row "serve-j1" ] in
  Solver.Eval_cache.clear ();
  rows

(** One benchmark entry per corpus program, across every suite: median
    end-to-end solve time, inference-tree size, and the headline solver
    counters from a telemetry-enabled run. *)
let bench_corpus_entries () =
  let entry_json suite (e : Corpus.Harness.entry) =
    let program = Corpus.Harness.load e in
    let ns = time_median (fun () -> Solver.Obligations.solve_program program) in
    (* a separate counted run, so the timed runs above stay untelemetered *)
    Telemetry.reset ();
    Telemetry.enable ();
    let report = Solver.Obligations.solve_program program in
    Telemetry.disable ();
    let tree_nodes =
      List.fold_left
        (fun acc (r : Solver.Obligations.goal_report) -> acc + Solver.Trace.size r.final)
        0 report.reports
    in
    Printf.printf "  %-28s %10.2f us/run %7d tree nodes\n" e.id (ns /. 1e3) tree_nodes;
    Json.Obj
      [
        ("name", Json.String e.id);
        ("suite", Json.String suite);
        ("library", Json.String e.library);
        ("ns_per_run", Json.Float ns);
        ("tree_nodes", Json.Int tree_nodes);
        ("solver_goals", Json.Int (Telemetry.counter_value "solver.goals"));
        ("unify_attempts", Json.Int (Telemetry.counter_value "unify.attempts"));
      ]
  in
  List.concat_map
    (fun (suite, es) -> List.map (entry_json suite) es)
    [
      ("entries", Corpus.Suite.entries);
      ("extended", Corpus.Suite.extended);
      ("extras", Corpus.Suite.extras);
      ("extended-ok", Corpus.Suite.extended_ok);
    ]

(** The sections of BENCH_pipeline.json, in document order: the JSON
    key (also the [--NAME-only] flag that re-measures just it, except
    for [entries]), the banner printed before it, and the measurement
    producing its rows. *)
let bench_sections =
  [
    ("entries", "pipeline entries (every corpus suite)", bench_corpus_entries);
    ("journal", "journal overhead (17-program suite)", bench_journal_entries);
    ("cache", "evaluation cache on/off (17-program suite)", bench_cache_entries);
    ( "fuzz",
      "differential fuzzing (generation + oracle bank, seed 42)",
      bench_fuzz_entries );
    ( "scale",
      "scale: mega-library front-end and per-goal cost (seed 42, solve cache off)",
      bench_scale_entries );
    ( "serve",
      "serve: 1000-client session scripts against one live server (seed 42)",
      bench_serve_entries );
  ]

let pipeline_path = "BENCH_pipeline.json"

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** The sections of the existing BENCH_pipeline.json (none if it is
    missing or unreadable), so a partial re-run keeps the others. *)
let existing_sections () =
  match Json.of_string (read_whole_file pipeline_path) with
  | Json.Obj fields ->
      List.filter_map (function name, Json.List rows -> Some (name, rows) | _ -> None) fields
  | _ -> []
  | exception (Sys_error _ | Json.Parse_error _) -> []

(** Re-measure the sections [selected] picks and rewrite
    BENCH_pipeline.json, carrying every other section over from the
    existing file. *)
let run_sections selected =
  let existing = existing_sections () in
  (* Settle the heap before timing: the first collections promote all
     loaded data, a pause that reads as a 30x regression at [--runs 1]. *)
  Gc.full_major ();
  let sections =
    List.map
      (fun (name, title, measure) ->
        if selected name then begin
          section title;
          (name, measure ())
        end
        else (name, Option.value ~default:[] (List.assoc_opt name existing)))
      bench_sections
  in
  let doc =
    Json.Obj
      ([
         ("schema", Json.String "argus.bench.pipeline/v9");
         ("runs", Json.Int !bench_runs);
         ("warmup", Json.Int !bench_warmup);
         ("ocaml_version", Json.String Sys.ocaml_version);
         ("git_commit", Json.String (git_commit ()));
         ( "diesel_lite_median_speedup",
           Json.Float (diesel_median (List.assoc "cache" sections)) );
       ]
      @ List.map (fun (name, rows) -> (name, Json.List rows)) sections)
  in
  let oc = open_out pipeline_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string_pretty doc);
      output_char oc '\n');
  Printf.printf "wrote %s (%s)\n" pipeline_path
    (String.concat ", "
       (List.map
          (fun (name, rows) -> Printf.sprintf "%d %s rows" (List.length rows) name)
          sections))

(* ------------------------------------------------------------------ *)
(* --diff OLD NEW: the perf-regression gate.  Compares two
   BENCH_pipeline.json files metric by metric (Profile.Bench_diff) and
   exits 1 when any ratio breaches the fail threshold — CI runs this
   against the committed baseline. *)

let bench_diff ~warn_above ~fail_above old_path new_path =
  let load which path =
    try Json.of_string (read_whole_file path) with
    | Sys_error m ->
        Printf.eprintf "error: cannot read %s file: %s\n" which m;
        exit 2
    | Json.Parse_error (m, off) ->
        Printf.eprintf "error: %s is not valid JSON: %s (byte %d)\n" path m off;
        exit 2
  in
  let old_doc = load "OLD" old_path and new_doc = load "NEW" new_path in
  let report =
    try Profile.Bench_diff.diff ?warn_above ?fail_above ~old_doc ~new_doc ()
    with Invalid_argument m ->
      Printf.eprintf "error: %s\n" m;
      exit 2
  in
  Printf.printf "comparing %s (old) vs %s (new)\n" old_path new_path;
  print_string (Profile.Bench_diff.to_string report);
  exit (Profile.Bench_diff.exit_code report)

let () =
  let argv = Sys.argv in
  (* --diff short-circuits the whole harness: no benchmarks run *)
  (match Array.to_list argv |> List.tl with
  | args when List.mem "--diff" args ->
      let rec positionals = function
        | ("--warn-above" | "--fail-above") :: _ :: rest -> positionals rest
        | a :: rest when String.length a > 0 && a.[0] = '-' -> positionals rest
        | a :: rest -> a :: positionals rest
        | [] -> []
      in
      let rec positional_after_diff = function
        | "--diff" :: rest -> positionals rest
        | _ :: rest -> positional_after_diff rest
        | [] -> []
      in
      let float_opt flag =
        let rec go = function
          | f :: v :: _ when f = flag -> float_of_string_opt v
          | _ :: rest -> go rest
          | [] -> None
        in
        go args
      in
      (match positional_after_diff args with
      | [ old_path; new_path ] ->
          bench_diff ~warn_above:(float_opt "--warn-above")
            ~fail_above:(float_opt "--fail-above") old_path new_path
      | _ ->
          prerr_endline
            "usage: bench --diff OLD.json NEW.json [--warn-above F] [--fail-above F]";
          exit 2)
  | _ -> ());
  Array.iteri
    (fun i a ->
      let next_int () =
        if i + 1 < Array.length argv then int_of_string_opt argv.(i + 1) else None
      in
      match a with
      | "--runs" -> (
          match next_int () with Some n when n > 0 -> bench_runs := n | _ -> ())
      | "--warmup" -> (
          match next_int () with Some n when n >= 0 -> bench_warmup := n | _ -> ())
      | _ -> ())
    argv;
  let flag f = Array.exists (( = ) f) argv in
  (* [entries] has no flag of its own: [--json-only] re-measures it
     together with every other section. *)
  let only name = name <> "entries" && flag ("--" ^ name ^ "-only") in
  if flag "--json-only" then run_sections (fun _ -> true)
  else if List.exists (fun (name, _, _) -> only name) bench_sections then run_sections only
  else begin
    print_endline "Argus-ML benchmark harness — regenerating every paper table/figure";
    fig_motivating ();
    fig_bevy_views ();
    fig11 ();
    fig12a ();
    fig12b ();
    ablation_dnf_minimization ();
    ablation_solver_cost ();
    ablation_depth_limit ();
    ablation_ranking_cost ();
    ablation_inertia_weight_sensitivity ();
    section "Machine-readable pipeline benchmark (BENCH_pipeline.json)";
    run_sections (fun _ -> true);
    print_endline "\ndone."
  end

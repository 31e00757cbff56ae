(** Tests for per-goal cost attribution: tree invariants over the full
    corpus, agreement between the journal-attributed total and the
    independently clocked solver.solve telemetry span, flamegraph
    encoder round-trips, and the bench --diff perf-regression gate
    (library level and through the CLI). *)

let record_profile program =
  let report, entries, words =
    Profile.record (fun () -> Solver.Obligations.solve_program program)
  in
  (report, Profile.of_entries ~words entries)

let corpus_programs () =
  List.map
    (fun (e : Corpus.Harness.entry) -> (e.id, Corpus.Harness.load e))
    Corpus.Suite.entries

(* ------------------------------------------------------------------ *)
(* Attribution invariants, over all 17 corpus programs *)

let test_attribution_invariants () =
  List.iter
    (fun (id, program) ->
      let _, prof = record_profile program in
      Alcotest.(check bool)
        (id ^ ": produced frames") true
        (prof.Profile.roots <> []);
      (* the attributed total is exactly the sum of the roots' totals *)
      let roots_total =
        List.fold_left (fun a (n : Profile.node) -> a + n.p_total_ns) 0 prof.Profile.roots
      in
      Alcotest.(check int) (id ^ ": total = sum of roots") roots_total
        prof.Profile.total_ns;
      let frames = ref 0 in
      Profile.iter
        (fun n ->
          incr frames;
          Alcotest.(check bool) (id ^ ": total >= 0") true (n.Profile.p_total_ns >= 0);
          Alcotest.(check bool) (id ^ ": self >= 0") true (n.Profile.p_self_ns >= 0);
          let child_total =
            List.fold_left
              (fun a (c : Profile.node) -> a + c.p_total_ns)
              0 n.Profile.p_children
          in
          (* children partition a sub-interval of the parent *)
          Alcotest.(check bool)
            (id ^ ": children within parent") true
            (child_total <= n.Profile.p_total_ns);
          Alcotest.(check int)
            (id ^ ": self = total - children")
            (n.Profile.p_total_ns - child_total)
            n.Profile.p_self_ns;
          (* every frame is reachable through the ID index *)
          Alcotest.(check bool)
            (id ^ ": frame indexed") true
            (match Hashtbl.find_opt prof.Profile.index n.Profile.p_id with
            | Some m -> m == n
            | None -> false))
        prof;
      Alcotest.(check int)
        (id ^ ": index is exactly the frames") !frames
        (Hashtbl.length prof.Profile.index);
      (* folded rows are a partition of the total: self times sum to it *)
      let folded_sum =
        List.fold_left (fun a (_, v) -> a + v) 0 (Profile.folded prof)
      in
      Alcotest.(check int) (id ^ ": folded sums to total") prof.Profile.total_ns
        folded_sum;
      (* live recording sampled GC allocation *)
      Alcotest.(check bool) (id ^ ": has allocation samples") true
        prof.Profile.has_words;
      Alcotest.(check bool) (id ^ ": not flagged zero-ts") false prof.Profile.zero_ts)
    (corpus_programs ())

(* ------------------------------------------------------------------ *)
(* Agreement with telemetry: the journal-attributed total and the
   solver.solve span clock the same work independently.  Scheduler
   hiccups on a loaded machine can skew a single run, so each program
   gets up to 3 attempts against a generous bound; the paper's diesel
   case study is additionally held to the tight 5% acceptance bound. *)

let span_sum_ns () =
  let sn = Telemetry.snapshot () in
  match
    List.find_opt
      (fun (h : Telemetry.hist_summary) -> h.hs_name = "solver.solve")
      sn.sn_spans
  with
  | Some h -> h.hs_sum_ns
  | None -> 0

let agreement_once program =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable (fun () ->
      let _, prof = record_profile program in
      (prof.Profile.total_ns, span_sum_ns ()))

let agrees ~rel ~abs_ns (profile_ns, span_ns) =
  span_ns > 0
  &&
  let delta = abs (profile_ns - span_ns) in
  delta <= abs_ns || float_of_int delta <= rel *. float_of_int span_ns

let check_agreement ~rel ~abs_ns id program =
  let rec attempt n =
    let pair = agreement_once program in
    if agrees ~rel ~abs_ns pair then ()
    else if n > 1 then attempt (n - 1)
    else
      let profile_ns, span_ns = pair in
      Alcotest.failf "%s: attributed %dns vs solver.solve span %dns" id profile_ns
        span_ns
  in
  attempt 3

let test_agreement_corpus () =
  List.iter
    (fun (id, program) -> check_agreement ~rel:0.15 ~abs_ns:50_000 id program)
    (corpus_programs ())

let test_agreement_diesel () =
  let e =
    List.find
      (fun (e : Corpus.Harness.entry) -> e.id = "diesel-missing-join")
      Corpus.Suite.entries
  in
  check_agreement ~rel:0.05 ~abs_ns:20_000 e.id (Corpus.Harness.load e)

(* ------------------------------------------------------------------ *)
(* Flamegraph encoders *)

let diesel_profile () =
  let e =
    List.find
      (fun (e : Corpus.Harness.entry) -> e.id = "diesel-missing-join")
      Corpus.Suite.entries
  in
  snd (record_profile (Corpus.Harness.load e))

let test_folded_roundtrip () =
  let prof = diesel_profile () in
  let rows = Profile.folded prof in
  let text = Argus_json.Flame.folded rows in
  let parsed = Argus_json.Flame.parse_folded text in
  Alcotest.(check int) "row count survives" (List.length rows) (List.length parsed);
  Alcotest.(check int) "values survive" (Argus_json.Flame.folded_total rows)
    (List.fold_left (fun a (_, v) -> a + v) 0 parsed);
  Alcotest.(check int) "folded total is the profile total" prof.Profile.total_ns
    (Argus_json.Flame.folded_total rows);
  List.iter2
    (fun (stack, v) (stack', v') ->
      Alcotest.(check int) "row value" v v';
      Alcotest.(check int) "stack depth" (List.length stack) (List.length stack'))
    rows parsed

let test_speedscope_roundtrip () =
  let prof = diesel_profile () in
  let events, end_at = Profile.frame_events prof in
  Alcotest.(check bool) "events are well-nested" true
    (Argus_json.Flame.well_nested events);
  let doc = Argus_json.Flame.speedscope ~name:"test" ~end_at events in
  (* a serialization round-trip, as speedscope.app would read it *)
  let doc = Argus_json.Json.of_string (Argus_json.Json.to_string doc) in
  let name, end_at', events' = Argus_json.Flame.parse_speedscope doc in
  Alcotest.(check string) "profile name" "test" name;
  Alcotest.(check int) "end offset" end_at end_at';
  Alcotest.(check int) "event count" (List.length events) (List.length events');
  List.iter2
    (fun (a : Argus_json.Flame.frame_event) (b : Argus_json.Flame.frame_event) ->
      Alcotest.(check string) "frame label" a.fe_frame b.fe_frame;
      Alcotest.(check bool) "open/close" a.fe_open b.fe_open;
      Alcotest.(check int) "offset" a.fe_at b.fe_at)
    events events'

let test_speedscope_rejects_unbalanced () =
  let open Argus_json.Flame in
  let bad = [ { fe_frame = "a"; fe_open = true; fe_at = 0 } ] in
  Alcotest.(check bool) "unclosed frame is not well-nested" false (well_nested bad);
  match speedscope bad with
  | _ -> Alcotest.fail "unbalanced events accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* The heat overlay join: proof-tree trace IDs resolve to frames *)

let test_heat_of_id () =
  let prof = diesel_profile () in
  List.iter
    (fun (root : Profile.node) ->
      match Profile.heat_of_id prof root.Profile.p_id with
      | None -> Alcotest.fail "root frame has no heat"
      | Some (intensity, label) ->
          Alcotest.(check bool) "intensity in [0,1]" true
            (intensity >= 0.0 && intensity <= 1.0);
          Alcotest.(check bool) "label names self time" true
            (String.length label > 4 && String.sub label 0 4 = "self"))
    prof.Profile.roots;
  Alcotest.(check (option (pair (float 0.0) string))) "unknown ID has no heat" None
    (Profile.heat_of_id prof (-1))

(* ------------------------------------------------------------------ *)
(* bench --diff, library level *)

let pipeline_doc entries =
  Argus_json.Json.Obj
    [
      ("schema", Argus_json.Json.String "argus.bench.pipeline/v5");
      ( "entries",
        Argus_json.Json.List
          (List.map
             (fun (name, ns) ->
               Argus_json.Json.Obj
                 [
                   ("name", Argus_json.Json.String name);
                   ("ns_per_run", Argus_json.Json.Float ns);
                 ])
             entries) );
    ]

let base_entries =
  [ ("a", 1000.0); ("b", 2000.0); ("c", 3000.0); ("d", 4000.0); ("e", 5000.0) ]

let test_diff_identical_passes () =
  let doc = pipeline_doc base_entries in
  let rep = Profile.Bench_diff.diff ~old_doc:doc ~new_doc:doc () in
  Alcotest.(check bool) "verdict is Pass" true
    (rep.Profile.Bench_diff.verdict = Profile.Bench_diff.Pass);
  Alcotest.(check int) "exit code 0" 0 (Profile.Bench_diff.exit_code rep);
  Alcotest.(check int) "all metrics compared" (List.length base_entries)
    (List.length rep.Profile.Bench_diff.rows);
  Alcotest.(check (float 1e-9)) "median ratio 1" 1.0
    rep.Profile.Bench_diff.median_ratio

let test_diff_detects_regression () =
  let old_doc = pipeline_doc base_entries in
  let new_doc = pipeline_doc (List.map (fun (n, v) -> (n, 2.0 *. v)) base_entries) in
  let rep = Profile.Bench_diff.diff ~old_doc ~new_doc () in
  Alcotest.(check bool) "verdict is Regression" true
    (rep.Profile.Bench_diff.verdict = Profile.Bench_diff.Regression);
  Alcotest.(check int) "exit code 1" 1 (Profile.Bench_diff.exit_code rep);
  Alcotest.(check int) "every metric regressed" (List.length base_entries)
    (List.length rep.Profile.Bench_diff.regressions);
  (* the CI separates systemic slowdown from one noisy metric *)
  Alcotest.(check bool) "systemic drift flagged" true
    rep.Profile.Bench_diff.systemic_drift;
  (* a raised fail threshold downgrades the same data to Drift *)
  let rep = Profile.Bench_diff.diff ~fail_above:25.0 ~old_doc ~new_doc () in
  Alcotest.(check bool) "drift under a generous threshold" true
    (rep.Profile.Bench_diff.verdict = Profile.Bench_diff.Drift);
  Alcotest.(check int) "drift still exits 0" 0 (Profile.Bench_diff.exit_code rep)

let test_diff_tracks_missing_and_added () =
  let old_doc = pipeline_doc base_entries in
  let new_doc = pipeline_doc (("f", 6000.0) :: List.tl base_entries) in
  let rep = Profile.Bench_diff.diff ~old_doc ~new_doc () in
  Alcotest.(check (list string)) "dropped metric reported"
    [ "entries/a/ns_per_run" ] rep.Profile.Bench_diff.missing;
  Alcotest.(check (list string)) "new metric reported" [ "entries/f/ns_per_run" ]
    rep.Profile.Bench_diff.added

(* A v6 document (with a scale section) diffed against a pre-v6
   baseline (without one): the new metrics are reported as added, never
   as a regression — CI can land the scale suite without regenerating
   the committed baseline first. *)
let test_diff_scale_section_tolerated () =
  let old_doc = pipeline_doc base_entries in
  let new_doc =
    match pipeline_doc base_entries with
    | Argus_json.Json.Obj fields ->
        Argus_json.Json.Obj
          (fields
          @ [
              ( "scale",
                Argus_json.Json.List
                  [
                    Argus_json.Json.Obj
                      [
                        ("impls", Argus_json.Json.Int 100);
                        ("ns_per_goal", Argus_json.Json.Float 1000.0);
                      ];
                  ] );
            ])
    | j -> j
  in
  let rep = Profile.Bench_diff.diff ~old_doc ~new_doc () in
  Alcotest.(check bool) "verdict is Pass" true
    (rep.Profile.Bench_diff.verdict = Profile.Bench_diff.Pass);
  Alcotest.(check (list string)) "scale metrics surface as added"
    [ "scale/100/ns_per_goal" ]
    rep.Profile.Bench_diff.added;
  (* and a scale-on-both-sides regression is caught like any other *)
  let rep = Profile.Bench_diff.diff ~old_doc:new_doc ~new_doc () in
  Alcotest.(check int) "same doc: nothing added" 0
    (List.length rep.Profile.Bench_diff.added)

(* Same tolerance story for the v8 serve section: a document that grew
   serve latency rows diffs clean against a pre-v8 baseline (added,
   never regressed), and a serve-on-both-sides slowdown is still a
   regression. *)
let test_diff_serve_section_tolerated () =
  let serve_doc p99 =
    match pipeline_doc base_entries with
    | Argus_json.Json.Obj fields ->
        Argus_json.Json.Obj
          (fields
          @ [
              ( "serve",
                Argus_json.Json.List
                  [
                    Argus_json.Json.Obj
                      [
                        ("name", Argus_json.Json.String "serve-j1");
                        ("p50_ns", Argus_json.Json.Int 40_000);
                        ("p99_ns", Argus_json.Json.Int p99);
                      ];
                  ] );
            ])
    | j -> j
  in
  let old_doc = pipeline_doc base_entries in
  let new_doc = serve_doc 900_000 in
  let rep = Profile.Bench_diff.diff ~old_doc ~new_doc () in
  Alcotest.(check bool) "verdict is Pass" true
    (rep.Profile.Bench_diff.verdict = Profile.Bench_diff.Pass);
  Alcotest.(check (list string)) "serve metrics surface as added"
    [ "serve/serve-j1/p50_ns"; "serve/serve-j1/p99_ns" ]
    rep.Profile.Bench_diff.added;
  (* on both sides: a 3x slower p99 fails the gate *)
  let rep =
    Profile.Bench_diff.diff ~old_doc:(serve_doc 900_000) ~new_doc:(serve_doc 2_700_000)
      ()
  in
  Alcotest.(check bool) "serve regression caught" true
    (rep.Profile.Bench_diff.verdict = Profile.Bench_diff.Regression);
  Alcotest.(check (list string)) "exactly the p99 metric regressed"
    [ "serve/serve-j1/p99_ns" ]
    (List.map
       (fun r -> Profile.Bench_diff.(r.r_section ^ "/" ^ r.r_name ^ "/" ^ r.r_metric))
       rep.Profile.Bench_diff.regressions)

let test_diff_rejects_foreign_schema () =
  let doc = pipeline_doc base_entries in
  let bad = Argus_json.Json.Obj [ ("schema", Argus_json.Json.String "other/v1") ] in
  match Profile.Bench_diff.diff ~old_doc:doc ~new_doc:bad () with
  | _ -> Alcotest.fail "foreign schema accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Telemetry trace-buffer cap (satellite of the profiling work) *)

let test_trace_buffer_cap () =
  let original = Telemetry.max_events () in
  Fun.protect
    ~finally:(fun () -> Telemetry.set_max_events original)
    (fun () ->
      Telemetry.set_max_events 10;
      Alcotest.(check int) "cap clamps to the 256 floor" 256 (Telemetry.max_events ());
      Telemetry.set_max_events 1024;
      Alcotest.(check int) "cap applies" 1024 (Telemetry.max_events ());
      let report = Telemetry.report_to_string (Telemetry.snapshot ()) in
      let contains needle haystack =
        let n = String.length needle and len = String.length haystack in
        let rec go i = i + n <= len && (String.sub haystack i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "report names the buffer cap" true
        (contains "buffer cap 1024" report))

(* ------------------------------------------------------------------ *)
(* CLI contract.  Tests run in _build/default/test; the CLI and bench
   executables are declared as test dependencies. *)

let cli = Filename.concat ".." (Filename.concat "bin" "argus_cli.exe")
let bench = Filename.concat ".." (Filename.concat "bench" "main.exe")

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains needle haystack =
  let n = String.length needle and len = String.length haystack in
  let rec go i = i + n <= len && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_cli_profile_corpus () =
  let code =
    Sys.command
      (Printf.sprintf
         "%s profile --corpus diesel-missing-join --flame prof.folded --speedscope \
          prof.json > prof.out 2> prof.err"
         cli)
  in
  Alcotest.(check int) "profile exits 0" 0 code;
  let out = read_file "prof.out" in
  Alcotest.(check bool) "prints the hot-goal table" true (contains "hot goals" out);
  Alcotest.(check bool) "prints the agreement cross-check" true
    (contains "agreement:" out);
  (* both artifacts parse, and they attribute the same total *)
  let rows = Argus_json.Flame.parse_folded (read_file "prof.folded") in
  Alcotest.(check bool) "folded file has rows" true (rows <> []);
  let _, end_at, events =
    Argus_json.Flame.parse_speedscope (Argus_json.Json.of_string (read_file "prof.json"))
  in
  Alcotest.(check bool) "speedscope events are well-nested" true
    (Argus_json.Flame.well_nested events);
  Alcotest.(check int) "folded total = speedscope end offset"
    (List.fold_left (fun a (_, v) -> a + v) 0 rows)
    end_at

let failing_source =
  "struct A; struct B; trait T {} impl T for B {} goal A: T;"

let test_cli_explain_timings () =
  write_file "prof_fail.trait" failing_source;
  let code =
    Sys.command
      (Printf.sprintf "%s diag --events-out prof_ev.jsonl prof_fail.trait > /dev/null 2>&1"
         cli)
  in
  Alcotest.(check int) "diag exits 0" 0 code;
  let code =
    Sys.command
      (Printf.sprintf "%s explain --timings prof_ev.jsonl > timings.out 2> timings.err" cli)
  in
  Alcotest.(check int) "explain --timings exits 0" 0 code;
  Alcotest.(check bool) "output carries self times" true
    (contains "self" (read_file "timings.out"));
  (* the same journal profiles offline *)
  let code =
    Sys.command
      (Printf.sprintf "%s profile prof_ev.jsonl > offline.out 2>&1" cli)
  in
  Alcotest.(check int) "offline profile exits 0" 0 code;
  Alcotest.(check bool) "offline table printed" true
    (contains "hot goals" (read_file "offline.out"))

(* argus check zeroes journal timestamps so the journal is a pure
   function of the inputs; --timestamps opts back into real ones for
   profiling. *)
let test_cli_check_timestamps () =
  write_file "prof_ts.trait" failing_source;
  let code =
    Sys.command
      (Printf.sprintf
         "%s check --events-out prof_zero.jsonl prof_ts.trait > /dev/null 2>&1" cli)
  in
  Alcotest.(check int) "check exits 1 on the trait error" 1 code;
  let zeroed =
    Profile.of_entries (Argus_json.Journal_codec.of_jsonl (read_file "prof_zero.jsonl"))
  in
  Alcotest.(check bool) "journal from check is zero-ts" true zeroed.Profile.zero_ts;
  let code =
    Sys.command
      (Printf.sprintf
         "%s check --timestamps --events-out prof_real.jsonl prof_ts.trait > /dev/null \
          2>&1"
         cli)
  in
  Alcotest.(check int) "check --timestamps exits 1 on the trait error" 1 code;
  let real =
    Profile.of_entries (Argus_json.Journal_codec.of_jsonl (read_file "prof_real.jsonl"))
  in
  Alcotest.(check bool) "journal with --timestamps has wall time" false
    real.Profile.zero_ts;
  Alcotest.(check bool) "time was attributed" true (real.Profile.total_ns > 0)

let test_cli_bench_diff () =
  let doc entries = Argus_json.Json.to_string (pipeline_doc entries) in
  write_file "diff_old.json" (doc base_entries);
  write_file "diff_new.json"
    (doc (List.map (fun (n, v) -> (n, 2.0 *. v)) base_entries));
  let code =
    Sys.command
      (Printf.sprintf "%s --diff diff_old.json diff_old.json > diff_same.out 2>&1" bench)
  in
  Alcotest.(check int) "identical files exit 0" 0 code;
  Alcotest.(check bool) "identical files pass" true
    (contains "verdict: PASS" (read_file "diff_same.out"));
  let code =
    Sys.command
      (Printf.sprintf "%s --diff diff_old.json diff_new.json > diff_reg.out 2>&1" bench)
  in
  Alcotest.(check int) "2x regression exits 1" 1 code;
  Alcotest.(check bool) "regression named in the report" true
    (contains "REGRESSED" (read_file "diff_reg.out"));
  (* CI's generous threshold downgrades the same 2x to a warning *)
  let code =
    Sys.command
      (Printf.sprintf
         "%s --diff diff_old.json diff_new.json --warn-above 1.5 --fail-above 25 > \
          diff_warn.out 2>&1"
         bench)
  in
  Alcotest.(check int) "drift under --fail-above 25 exits 0" 0 code

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "profile"
    [
      ( "attribution",
        [
          Alcotest.test_case "invariants over the corpus" `Quick
            test_attribution_invariants;
          Alcotest.test_case "agrees with solver.solve span (corpus)" `Slow
            test_agreement_corpus;
          Alcotest.test_case "agrees within 5% on diesel" `Quick
            test_agreement_diesel;
          Alcotest.test_case "heat by stable node ID" `Quick test_heat_of_id;
        ] );
      ( "flamegraphs",
        [
          Alcotest.test_case "folded round-trip" `Quick test_folded_roundtrip;
          Alcotest.test_case "speedscope round-trip" `Quick test_speedscope_roundtrip;
          Alcotest.test_case "speedscope rejects unbalanced" `Quick
            test_speedscope_rejects_unbalanced;
        ] );
      ( "bench diff",
        [
          Alcotest.test_case "identical files pass" `Quick test_diff_identical_passes;
          Alcotest.test_case "2x regression detected" `Quick
            test_diff_detects_regression;
          Alcotest.test_case "missing and added metrics" `Quick
            test_diff_tracks_missing_and_added;
          Alcotest.test_case "scale section tolerated" `Quick
            test_diff_scale_section_tolerated;
          Alcotest.test_case "serve section tolerated" `Quick
            test_diff_serve_section_tolerated;
          Alcotest.test_case "foreign schema rejected" `Quick
            test_diff_rejects_foreign_schema;
        ] );
      ( "telemetry buffer",
        [ Alcotest.test_case "configurable cap" `Quick test_trace_buffer_cap ] );
      ( "cli",
        [
          Alcotest.test_case "profile --corpus artifacts" `Quick
            test_cli_profile_corpus;
          Alcotest.test_case "explain --timings and offline profile" `Quick
            test_cli_explain_timings;
          Alcotest.test_case "check --timestamps" `Quick test_cli_check_timestamps;
          Alcotest.test_case "bench --diff gate" `Quick test_cli_bench_diff;
        ] );
    ]

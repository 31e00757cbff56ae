(** Tests for the telemetry sink and its Chrome-trace export: counter and
    histogram semantics, the disabled fast path, span nesting discipline,
    the report table, round-tripping a trace through the JSON decoder, and
    the solver counters on a real corpus program. *)

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int
let check_string = Alcotest.check Alcotest.string

(** Every test runs against the process-global sink: start from zero and
    always leave the sink disabled, even on failure. *)
let with_sink f () =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    f

(* ------------------------------------------------------------------ *)
(* counters *)

let test_counter_incr () =
  let c = Telemetry.counter "test.counter.incr" in
  check_int "fresh" 0 (Telemetry.value c);
  Telemetry.incr c;
  Telemetry.incr c;
  Telemetry.add c 40;
  check_int "42 after incrs" 42 (Telemetry.value c);
  check_int "by name" 42 (Telemetry.counter_value "test.counter.incr");
  (* the same name resolves to the same counter *)
  Telemetry.incr (Telemetry.counter "test.counter.incr");
  check_int "aliased handle" 43 (Telemetry.value c)

let test_counter_reset () =
  let c = Telemetry.counter "test.counter.reset" in
  Telemetry.add c 7;
  check_int "before reset" 7 (Telemetry.value c);
  Telemetry.reset ();
  check_int "after reset" 0 (Telemetry.value c);
  (* handles stay live across reset *)
  Telemetry.incr c;
  check_int "reusable" 1 (Telemetry.value c)

let test_counter_disabled () =
  let c = Telemetry.counter "test.counter.disabled" in
  Telemetry.disable ();
  Telemetry.incr c;
  Telemetry.add c 10;
  Telemetry.record_max c 99;
  check_int "no-ops while disabled" 0 (Telemetry.value c);
  Telemetry.enable ();
  Telemetry.incr c;
  check_int "counts again" 1 (Telemetry.value c)

let test_record_max () =
  let c = Telemetry.counter "test.counter.hwm" in
  Telemetry.record_max c 5;
  Telemetry.record_max c 3;
  check_int "keeps the max" 5 (Telemetry.value c);
  Telemetry.record_max c 11;
  check_int "raises with a new max" 11 (Telemetry.value c)

(* ------------------------------------------------------------------ *)
(* histograms *)

let test_histogram_empty () =
  let h = Telemetry.histogram "test.hist.empty" in
  check_bool "p50 of empty" true (Telemetry.quantile h 0.5 = 0.);
  check_bool "p99 of empty" true (Telemetry.quantile h 0.99 = 0.)

let test_histogram_single () =
  let h = Telemetry.histogram "test.hist.single" in
  Telemetry.observe h 1500;
  (* one sample: every quantile is exactly that sample (min/max clamp) *)
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0)) "single-sample quantile" 1500. (Telemetry.quantile h q))
    [ 0.5; 0.9; 0.99 ]

let test_histogram_many () =
  let h = Telemetry.histogram "test.hist.many" in
  for i = 1 to 1000 do
    Telemetry.observe h (i * 100)
  done;
  let p50 = Telemetry.quantile h 0.5 in
  let p90 = Telemetry.quantile h 0.9 in
  let p99 = Telemetry.quantile h 0.99 in
  check_bool "quantiles ordered" true (p50 <= p90 && p90 <= p99);
  (* log2 buckets: estimates are within a factor of two of the truth *)
  let within name truth est =
    if not (est >= truth /. 2. && est <= truth *. 2.) then
      Alcotest.failf "%s: %.0f not within 2x of %.0f" name est truth
  in
  within "p50" 50_000. p50;
  within "p90" 90_000. p90;
  within "p99" 99_000. p99;
  (* clamped to the observed range *)
  check_bool "p99 <= max" true (p99 <= 100_000.);
  check_bool "p50 >= min" true (p50 >= 100.)

(* ------------------------------------------------------------------ *)
(* spans and the event buffer *)

let test_span_nesting () =
  let outer = Telemetry.span "test.span.outer" in
  let inner = Telemetry.span "test.span.inner" in
  let t_outer = Telemetry.begin_ outer in
  let t_inner = Telemetry.begin_ inner in
  Telemetry.end_ inner t_inner;
  Telemetry.end_ outer t_outer;
  Telemetry.with_span outer (fun () -> ());
  let evs = Telemetry.events () in
  check_int "six events" 6 (List.length evs);
  check_bool "well formed" true (Telemetry.well_formed_events evs);
  check_int "nothing dropped" 0 (Telemetry.dropped_events ());
  (match evs with
  | a :: b :: c :: d :: _ ->
      check_string "outer begins" "test.span.outer" a.Telemetry.ev_name;
      check_int "outer at depth 0" 0 a.Telemetry.ev_depth;
      check_int "inner at depth 1" 1 b.Telemetry.ev_depth;
      check_bool "inner ends before outer" true
        (c.Telemetry.ev_name = "test.span.inner"
        && c.Telemetry.ev_phase = Telemetry.Span_end
        && d.Telemetry.ev_name = "test.span.outer");
      check_bool "timestamps monotone" true
        (a.Telemetry.ev_ts <= b.Telemetry.ev_ts
        && b.Telemetry.ev_ts <= c.Telemetry.ev_ts
        && c.Telemetry.ev_ts <= d.Telemetry.ev_ts)
  | _ -> Alcotest.fail "expected at least four events");
  (* an interleaved end is rejected by the checker *)
  let bad =
    [
      { Telemetry.ev_name = "a"; ev_phase = Telemetry.Span_begin; ev_ts = 0; ev_depth = 0 };
      { Telemetry.ev_name = "b"; ev_phase = Telemetry.Span_begin; ev_ts = 1; ev_depth = 1 };
      { Telemetry.ev_name = "a"; ev_phase = Telemetry.Span_end; ev_ts = 2; ev_depth = 1 };
      { Telemetry.ev_name = "b"; ev_phase = Telemetry.Span_end; ev_ts = 3; ev_depth = 0 };
    ]
  in
  check_bool "interleaving rejected" false (Telemetry.well_formed_events bad)

let test_span_disabled () =
  Telemetry.disable ();
  let s = Telemetry.span "test.span.disabled" in
  let t0 = Telemetry.begin_ s in
  check_int "disabled begin_ returns the sentinel" (-1) t0;
  Telemetry.end_ s t0;
  Telemetry.enable ();
  check_int "no events recorded" 0 (List.length (Telemetry.events ()))

let test_report_table () =
  let c = Telemetry.counter "test.report.counter" in
  let s = Telemetry.span "test.report.span" in
  Telemetry.add c 3;
  Telemetry.with_span s (fun () -> ());
  let report = Telemetry.report_to_string (Telemetry.snapshot ()) in
  let contains sub =
    let n = String.length report and m = String.length sub in
    let rec go i = i + m <= n && (String.sub report i m = sub || go (i + 1)) in
    go 0
  in
  check_bool "span row present" true (contains "test.report.span");
  check_bool "counter row present" true (contains "test.report.counter")

(* ------------------------------------------------------------------ *)
(* Chrome-trace export round trip *)

let test_chrome_trace_roundtrip () =
  let outer = Telemetry.span "test.trace.outer" in
  let inner = Telemetry.span "test.trace.inner" in
  let c = Telemetry.counter "test.trace.counter" in
  Telemetry.with_span outer (fun () ->
      Telemetry.with_span inner (fun () -> Telemetry.incr c));
  let sn = Telemetry.snapshot () in
  let s = Argus_json.Telemetry_export.chrome_trace_string sn in
  (* the exported string survives a parse through the real decoder *)
  let decoded = Argus_json.Telemetry_export.decode_events (Argus_json.Json.of_string s) in
  check_bool "decoded something" true (List.length decoded > 0);
  (match decoded with
  | m :: _ -> check_string "metadata event first" "M" m.Argus_json.Telemetry_export.de_ph
  | [] -> Alcotest.fail "empty trace");
  let spans = Argus_json.Telemetry_export.decoded_spans decoded in
  check_int "two B + two E" 4 (List.length spans);
  List.iter
    (fun (e : Argus_json.Telemetry_export.decoded_event) ->
      check_bool "span name round-tripped" true
        (e.de_name = "test.trace.outer" || e.de_name = "test.trace.inner");
      check_bool "phase is B or E" true (e.de_ph = "B" || e.de_ph = "E");
      check_bool "ts rebased and finite" true (e.de_ts >= 0. && Float.is_finite e.de_ts))
    spans;
  (match spans with
  | a :: b :: c' :: d :: [] ->
      check_string "outer opens" "test.trace.outer" a.de_name;
      check_string "inner opens" "test.trace.inner" b.de_name;
      check_string "inner closes" "E" c'.de_ph;
      check_string "outer closes" "test.trace.outer" d.de_name;
      check_bool "trace ts monotone" true (a.de_ts <= b.de_ts && b.de_ts <= c'.de_ts && c'.de_ts <= d.de_ts)
  | _ -> Alcotest.fail "expected exactly four span events");
  (* the nonzero counter shows up as a "C" event *)
  check_bool "counter event present" true
    (List.exists
       (fun (e : Argus_json.Telemetry_export.decoded_event) ->
         e.de_ph = "C" && e.de_name = "test.trace.counter")
       decoded)

let test_chrome_trace_rejects_garbage () =
  let bad () =
    ignore
      (Argus_json.Telemetry_export.decode_events (Argus_json.Json.String "not a trace"))
  in
  (match bad () with
  | () -> Alcotest.fail "expected Decode_error on a non-array"
  | exception Argus_json.Decode.Decode_error _ -> ());
  let missing = Argus_json.Json.List [ Argus_json.Json.Obj [ ("ph", Argus_json.Json.String "B") ] ] in
  match Argus_json.Telemetry_export.decode_events missing with
  | _ -> Alcotest.fail "expected Decode_error on a missing name"
  | exception Argus_json.Decode.Decode_error _ -> ()

(* ------------------------------------------------------------------ *)
(* solver integration: counters from a real corpus run *)

let test_solver_counters () =
  let e = Option.get (Corpus.Suite.find "diesel-missing-join") in
  let program = Corpus.Harness.load e in
  ignore (Solver.Obligations.solve_program program);
  let goals = Telemetry.counter_value "solver.goals" in
  let attempts = Telemetry.counter_value "unify.attempts" in
  check_bool "solved some goals" true (goals > 0);
  check_bool "attempted unifications" true (attempts > 0);
  check_bool "fixpoint span ran" true
    (List.exists
       (fun (hs : Telemetry.hist_summary) ->
         hs.hs_name = "solver.fixpoint" && hs.hs_count > 0)
       (Telemetry.snapshot ()).sn_spans)

let test_solver_counters_isolated () =
  let e = Option.get (Corpus.Suite.find "diesel-missing-join") in
  let program = Corpus.Harness.load e in
  ignore (Solver.Obligations.solve_program program);
  let goals1 = Telemetry.counter_value "solver.goals" in
  let attempts1 = Telemetry.counter_value "unify.attempts" in
  (* reset isolates runs: a second identical run reproduces the tallies
     instead of accumulating onto them.  Each run has its own evaluation
     cache, so no run finds the other's entries. *)
  Telemetry.reset ();
  check_int "goals cleared" 0 (Telemetry.counter_value "solver.goals");
  check_int "attempts cleared" 0 (Telemetry.counter_value "unify.attempts");
  ignore (Solver.Obligations.solve_program program);
  check_int "goals reproduce" goals1 (Telemetry.counter_value "solver.goals");
  check_int "attempts reproduce" attempts1 (Telemetry.counter_value "unify.attempts")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "telemetry"
    [
      ( "counters",
        [
          Alcotest.test_case "incr/add" `Quick (with_sink test_counter_incr);
          Alcotest.test_case "reset" `Quick (with_sink test_counter_reset);
          Alcotest.test_case "disabled" `Quick (with_sink test_counter_disabled);
          Alcotest.test_case "record_max" `Quick (with_sink test_record_max);
        ] );
      ( "histograms",
        [
          Alcotest.test_case "empty" `Quick (with_sink test_histogram_empty);
          Alcotest.test_case "single sample" `Quick (with_sink test_histogram_single);
          Alcotest.test_case "many samples" `Quick (with_sink test_histogram_many);
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick (with_sink test_span_nesting);
          Alcotest.test_case "disabled" `Quick (with_sink test_span_disabled);
          Alcotest.test_case "report table" `Quick (with_sink test_report_table);
        ] );
      ( "chrome trace",
        [
          Alcotest.test_case "round trip" `Quick (with_sink test_chrome_trace_roundtrip);
          Alcotest.test_case "rejects garbage" `Quick
            (with_sink test_chrome_trace_rejects_garbage);
        ] );
      ( "solver integration",
        [
          Alcotest.test_case "corpus counters" `Quick (with_sink test_solver_counters);
          Alcotest.test_case "reset isolation" `Quick
            (with_sink test_solver_counters_isolated);
        ] );
    ]

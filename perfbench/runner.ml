(* One benchmark run: repeated set-up, a warm-up cycle, then timed
   steps for a fixed wall-clock budget, each followed by its correctness
   check outside the timed region.

   Set-up and steps are timed in processor time of the whole process.
   On a virtual machine whose host is shared, stolen time and
   descheduling inflate wall-clock time by 5–40% depending on the
   neighbours' load, and it stays that way for minutes; processor time
   counts only the work the process does.  Wall-clock percentiles are
   printed in the table alongside.

   With [trace] off, the run reports the end-to-end metrics.  With
   [trace] on, whole cycles alternate between untraced and traced
   (benchmark spans recording, [Telemetry] enabled so the program's own
   counters fill in); the traced cycles give the per-layer metrics, and
   the ratio of traced to untraced time per request is the tracing
   overhead. *)

open Workload

let setup_reps = 3

(* The heap's high-water mark is read after this many measured cycles,
   a fixed amount of work: a run's length is wall-clock time, and with
   the pool's second domain the mark creeps up with every extra cycle a
   faster run gets through. *)
let heap_cycles = 5

type metric = { m_name : string; m_value : float; m_unit : string }

type result = {
  r_workload : string;
  r_seed : int;
  r_digest : string;  (** of the generated inputs *)
  r_attempted : int;
  r_failed : int;
  r_samples : int;  (** latency samples behind p50/p99 *)
  r_wall_p50_us : float;
  r_wall_p99_us : float;
  r_metrics : metric list;  (** end-to-end, or per-layer when traced *)
  r_error_rate : float;
  r_nesting_errors : int;  (** traced ops with a span outside its parent *)
  r_unattributed : float;  (** traced ops' wall share outside the program's spans *)
}

let m m_name m_unit m_value = { m_name; m_value; m_unit }

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  percentile a 0.5

let mean l = match l with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
let ratio a b = if b = 0.0 then 0.0 else a /. b
let sum = List.fold_left ( +. ) 0.0

(* The largest share of the traced ops' summed wall time that may fall
   outside every span the benchmark puts around a call into the program:
   the [bench] layer, the benchmark's own glue between calls.  It is
   under 1% on every workload; a call left without a span shows here.
   Single ops are not held to it: on ops of a few tens of microseconds a
   garbage-collector slice or a descheduling that lands in the glue
   takes a quarter of the op or more. *)
let max_unattributed = 0.10

(* The [bench] share of the ops' summed wall time. *)
let unattributed (ops : Spans.op_breakdown list) =
  ratio
    (sum (List.map (fun (b : Spans.op_breakdown) -> try List.assoc "bench" b.ob_self with Not_found -> 0.0) ops))
    (sum (List.map (fun (b : Spans.op_breakdown) -> float_of_int b.ob_wall_ns) ops))

(* ------------------------------------------------------------------ *)
(* Per-layer metrics from one traced run *)

let counter name = float_of_int (Telemetry.counter_value name)

let per_layer ~ops ~spans ~untraced_ns ~traced_ns ~untraced_reqs ~traced_reqs ~minor_words
    ~major_collections =
  let durations names =
    List.filter_map
      (fun (s : Spans.span) ->
        if List.mem s.name names then Some (float_of_int (s.stop_ns - s.start_ns)) else None)
      spans
  in
  let med_us names = median (durations names) /. 1e3 in
  let sample_med_us name = median (samples_of name) /. 1e3 in
  let fops = float_of_int (max 1 traced_reqs) in
  (* parse time per op: an op's parse and resolve spans together *)
  let parse_per_op =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (s : Spans.span) ->
        if s.name = "trait_lang.parse" || s.name = "trait_lang.resolve" then
          Hashtbl.replace tbl s.op
            (float_of_int (s.stop_ns - s.start_ns)
            +. try Hashtbl.find tbl s.op with Not_found -> 0.0))
      spans;
    Hashtbl.fold (fun _ v a -> v :: a) tbl []
  in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (s : Spans.span) -> Hashtbl.replace by_id s.id s) spans;
  let pool_items =
    List.filter
      (fun (s : Spans.span) ->
        match Hashtbl.find_opt by_id s.parent with
        | Some p -> p.name = "pool.run"
        | None -> false)
      spans
  in
  let waits =
    List.map
      (fun (s : Spans.span) ->
        float_of_int (s.start_ns - (Hashtbl.find by_id s.parent).start_ns))
      pool_items
  in
  let busy = sum (List.map (fun (s : Spans.span) -> float_of_int (s.stop_ns - s.start_ns)) pool_items) in
  let pool_wall = sum (durations [ "pool.run" ]) in
  let cache_hits = counter "cache.tree.hits" +. counter "cache.result.hits" in
  let cache_misses = counter "cache.tree.misses" +. counter "cache.result.misses" in
  let index_hits = counter "index.hits" and index_rejects = counter "index.rejects" in
  let attempts = counter "unify.attempts" in
  let goals = counter "solver.goals" in
  let candidates =
    counter "solver.candidates.param_env" +. counter "solver.candidates.impl"
    +. counter "solver.candidates.builtin"
  in
  let survived = counter "incr.survived" and evicted = counter "incr.evicted" in
  let per_untraced = ratio untraced_ns (float_of_int untraced_reqs) in
  let per_traced = ratio traced_ns (float_of_int traced_reqs) in
  let self_ns layer =
    sum
      (List.map
         (fun (b : Spans.op_breakdown) ->
           try List.assoc layer b.ob_self with Not_found -> 0.0)
         ops)
  in
  let self_us layer = self_ns layer /. float_of_int (max 1 (List.length ops)) /. 1e3 in
  [
    m "trait_lang.parse_us" "us" (median parse_per_op /. 1e3);
    m "trait_lang.bytes_per_s" "B/s"
      (ratio (sum (samples_of "trait_lang.bytes")) (sum parse_per_op /. 1e9));
    m "trait_lang.interner_hit_rate" "ratio"
      (ratio (counter "interner.hit") (counter "interner.hit" +. counter "interner.miss"));
    m "solver.solve_us" "us" (med_us [ "solver.solve"; "solver.session.resolve" ]);
    m "solver.coherence_us" "us" (sample_med_us "solver.coherence_ns");
    m "solver.goals" "1/op" (goals /. fops);
    m "solver.unify_attempts" "1/op" (attempts /. fops);
    m "solver.unify_useful_ratio" "ratio"
      (if attempts = 0.0 then 0.0 else 1.0 -. (counter "unify.failures" /. attempts));
    m "solver.candidates_per_goal" "ratio" (ratio candidates goals);
    m "eval_cache.hit_rate" "ratio" (ratio cache_hits (cache_hits +. cache_misses));
    m "eval_cache.tree_inserts" "1/op" (counter "cache.tree.inserts" /. fops);
    m "eval_cache.tree_rejects" "1/op" (counter "cache.tree.rejects" /. fops);
    m "fast_reject.reject_rate" "ratio" (ratio index_rejects (index_hits +. index_rejects));
    m "fast_reject.builds" "1/op" (counter "index.builds" /. fops);
    m "session.edit_us" "us" (med_us [ "solver.session.edit" ]);
    m "session.green_fraction" "ratio" (ratio survived (survived +. evicted));
    m "typeck.check_us" "us" (sample_med_us "typeck.check_ns");
    m "rustc_diag.diag_us" "us" (sample_med_us "rustc_diag.diag_ns");
    m "core.extract_us" "us" (med_us [ "core.extract" ]);
    m "core.rank_us" "us" (med_us [ "core.rank" ]);
    m "core.render_us" "us" (med_us [ "core.render" ]);
    m "core.view_step_us" "us" (med_us [ "core.view_step" ]);
    m "core.dnf_conjuncts" "count" (mean (samples_of "core.dnf_conjuncts"));
    m "journal.capture_us" "us" (sample_med_us "journal.capture_ns");
    m "journal.events_per_solve" "count" (mean (samples_of "journal.events"));
    m "json.rpc_encode_us" "us" (med_us [ "json.rpc_encode" ]);
    m "json.rpc_decode_us" "us" (med_us [ "json.rpc_decode" ]);
  ]
  @ List.map
      (fun v -> m (Printf.sprintf "serve.%s_us" v) "us" (med_us [ "serve." ^ v ]))
      [ "open"; "solve"; "tree"; "expand"; "hover"; "explain"; "reload" ]
  @ [
      m "pool.utilization" "ratio"
        (ratio busy (pool_wall *. float_of_int Serve_editor.workers));
      m "pool.batch_wait_us" "us" (median waits /. 1e3);
      m "gc.minor_words_per_op" "words/op" (ratio minor_words (float_of_int untraced_reqs));
      m "gc.major_collections" "count" (float_of_int major_collections);
      m "telemetry.trace_overhead_pct" "%" (100.0 *. (ratio per_traced per_untraced -. 1.0));
      m "trace.unattributed_pct" "%" (100.0 *. unattributed ops);
    ]
  @ List.map
      (fun l -> m (Printf.sprintf "self.%s_us" l) "us" (self_us l))
      [ "trait_lang"; "solver"; "serve"; "core"; "json"; "pool"; "bench" ]

(* ------------------------------------------------------------------ *)

(* A check is not part of the op: the program's counters must not see
   the work it does (reference comparisons, the traced run's post-op
   probes, which solve and resolve again). *)
let without_telemetry f =
  if not (Telemetry.enabled ()) then f ()
  else begin
    Telemetry.disable ();
    Fun.protect ~finally:Telemetry.enable f
  end

let reset_process_state () =
  Telemetry.disable ();
  Telemetry.reset ();
  Spans.set_enabled false;
  Spans.clear ();
  clear_samples ()

let run ?(inject_fault = false) ?spans_out ~seed ~seconds ~trace (W w) : result =
  reset_process_state ();
  (* set-up, several times; the inputs must come out identical *)
  let setup_ns = ref [] in
  let refs = ref None and digest = ref "" and inst = ref None in
  for rep = 1 to setup_reps do
    Solver.Eval_cache.clear ();
    Solver.Fast_reject.clear ();
    let c0 = cpu_ns () in
    let inp = w.generate ~seed in
    let t_gen = cpu_ns () - c0 in
    let d = w.digest inp in
    (match !refs with
    | None ->
        digest := d;
        refs := Some (w.reference ~inject_fault inp)
    | Some _ -> if d <> !digest then failwith "the same seed generated different inputs");
    Solver.Fast_reject.clear ();
    let c0 = cpu_ns () in
    let i = w.start inp (Option.get !refs) in
    let t_start = cpu_ns () - c0 in
    setup_ns := float_of_int (t_gen + t_start) :: !setup_ns;
    if rep < setup_reps then i.teardown () else inst := Some i
  done;
  let inst = Option.get !inst in
  let attempted = ref 0 and failed = ref 0 in
  let run_step () =
    let st =
      try inst.step ()
      with _ -> { requests = 1; check = (fun () -> 1) }
    in
    (st, fun () ->
      attempted := !attempted + st.requests;
      let bad = without_telemetry (fun () -> try min st.requests (st.check ()) with _ -> st.requests) in
      failed := !failed + bad)
  in
  (* warm-up: one unmeasured cycle *)
  let rec warm_up () =
    let _, check = run_step () in
    check ();
    if not (inst.cycle_start ()) then warm_up ()
  in
  warm_up ();
  let lat = ref [] and wall = ref [] in
  let untraced_ns = ref 0 and traced_ns = ref 0 in
  let untraced_reqs = ref 0 and traced_reqs = ref 0 in
  let gc0 = Gc.quick_stat () in
  let minor_words = ref 0.0 and block_words = ref gc0.minor_words and check_words = ref 0.0 in
  let deadline = Telemetry.now_ns () + int_of_float (seconds *. 1e9) in
  let n = ref 0 and cycles = ref 0 and traced = ref false and top_heap = ref None in
  let continue () =
    let now = Telemetry.now_ns () in
    if trace then
      now < deadline || (not (inst.cycle_start ())) || !traced_reqs = 0 || !untraced_reqs = 0
    else now < deadline
  in
  while continue () do
    let new_cycle = inst.cycle_start () in
    if new_cycle then begin
      if !cycles = heap_cycles then top_heap := Some (Gc.quick_stat ()).top_heap_words;
      incr cycles
    end;
    if trace && new_cycle then begin
      (* allocation is sampled per block: Gc.quick_stat sums over every
         domain, which is too intrusive to call around each step *)
      let words = (Gc.quick_stat ()).minor_words in
      if not !traced then minor_words := !minor_words +. (words -. !block_words);
      block_words := words;
      traced := not !traced;
      Spans.set_enabled !traced;
      if !traced then Telemetry.enable () else Telemetry.disable ()
    end;
    let t0 = Telemetry.now_ns () and c0 = cpu_ns () in
    let st, check = Spans.root !n (fun () -> run_step ()) in
    let dt = cpu_ns () - c0 and dw = Telemetry.now_ns () - t0 in
    incr n;
    for _ = 1 to st.requests do
      lat := dt :: !lat;
      wall := dw :: !wall
    done;
    if !traced then begin
      traced_ns := !traced_ns + dt;
      traced_reqs := !traced_reqs + st.requests
    end
    else begin
      untraced_ns := !untraced_ns + dt;
      untraced_reqs := !untraced_reqs + st.requests
    end;
    (* checks run on this domain; their allocation is not the op's *)
    let w0 = Gc.minor_words () in
    check ();
    if not !traced then check_words := !check_words +. (Gc.minor_words () -. w0)
  done;
  Spans.set_enabled false;
  Telemetry.disable ();
  let gc1 = Gc.quick_stat () in
  if trace && not !traced then minor_words := !minor_words +. (gc1.minor_words -. !block_words);
  inst.teardown ();
  let sorted_of l =
    let a = Array.of_list (List.map float_of_int l) in
    Array.sort compare a;
    a
  in
  let sorted = sorted_of !lat and sorted_wall = sorted_of !wall in
  let spans = if trace then Spans.all () else [] in
  let ops = Spans.breakdown spans in
  let nesting_errors =
    List.length (List.filter (fun (b : Spans.op_breakdown) -> b.ob_nesting_errors > 0) ops)
  in
  (match spans_out with Some path when trace -> Spans.write_jsonl path spans | _ -> ());
  let metrics =
    if trace then
      per_layer ~ops ~spans ~untraced_ns:(float_of_int !untraced_ns)
        ~traced_ns:(float_of_int !traced_ns) ~untraced_reqs:!untraced_reqs
        ~traced_reqs:!traced_reqs ~minor_words:(!minor_words -. !check_words)
        ~major_collections:(gc1.major_collections - gc0.major_collections)
    else
      [
        m "ops_per_s" "1/s"
          (ratio (float_of_int (!untraced_reqs + !traced_reqs))
             (float_of_int (!untraced_ns + !traced_ns) /. 1e9));
        m "p50_us" "us" (percentile sorted 0.50 /. 1e3);
        m "p99_us" "us" (percentile sorted 0.99 /. 1e3);
        m "setup_s" "s" (median !setup_ns /. 1e9);
        m "peak_heap_mb" "MB"
          (float_of_int (Option.value !top_heap ~default:gc1.top_heap_words * (Sys.word_size / 8))
          /. 1048576.0);
      ]
  in
  Spans.clear ();
  {
    r_workload = w.name;
    r_seed = seed;
    r_digest = !digest;
    r_attempted = max 1 !attempted;
    r_failed = !failed;
    r_samples = Array.length sorted;
    r_wall_p50_us = percentile sorted_wall 0.50 /. 1e3;
    r_wall_p99_us = percentile sorted_wall 0.99 /. 1e3;
    r_metrics = metrics;
    r_error_rate = ratio (float_of_int !failed) (float_of_int (max 1 !attempted));
    r_nesting_errors = nesting_errors;
    r_unattributed = unattributed ops;
  }

(* ------------------------------------------------------------------ *)
(* Output *)

(** Do the traced ops' spans account for their wall time?  Each span
    lies inside its parent, and at most [max_unattributed] of the wall
    time is the benchmark's glue.  Untraced runs have no spans. *)
let spans_account r = r.r_nesting_errors = 0 && r.r_unattributed <= max_unattributed

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(** The result line: one JSON object, the last line of stdout. *)
let to_json r =
  let metrics =
    List.map
      (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name (json_number x.m_value) x.m_unit)
      r.r_metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.r_failed = 0 && spans_account r)
    r.r_attempted r.r_failed (String.concat ", " metrics)

(** A human-readable table of every metric with its unit, plus the
    error rate and the sample counts behind the percentiles. *)
let to_table r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "workload %s  seed %d  inputs %s\n" r.r_workload r.r_seed r.r_digest;
  List.iter
    (fun x -> Printf.bprintf b "  %-32s %18.4f %s\n" x.m_name x.m_value x.m_unit)
    r.r_metrics;
  Printf.bprintf b "  %-32s %18.4f %s\n" "error_rate" r.r_error_rate "ratio";
  Printf.bprintf b "  %-32s %18d (%d beyond p99)\n" "samples" r.r_samples (r.r_samples / 100);
  if r.r_wall_p50_us > 0.0 then
    Printf.bprintf b "  %-32s %18.4f / %.4f us\n" "wall-clock p50 / p99" r.r_wall_p50_us
      r.r_wall_p99_us;
  Printf.bprintf b "  %-32s %18d of %d\n" "failed" r.r_failed r.r_attempted;
  if r.r_nesting_errors > 0 then
    Printf.bprintf b "  trace accounting: %d ops with a span outside its parent\n" r.r_nesting_errors;
  if r.r_unattributed > max_unattributed then
    Printf.bprintf b "  trace accounting: %.1f%% of the ops' wall time outside the program's spans\n"
      (100.0 *. r.r_unattributed);
  Buffer.contents b

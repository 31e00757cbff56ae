(** Tests for the solver search journal: replay validation over the full
    corpus, event sequences for the §2 failure modes, JSONL round-trips,
    and the CLI observability contract (outputs written even on load
    failure). *)

open Trait_lang

let parse src = Resolve.program_of_string ~file:"test.trait" src

let record_solve program =
  Journal.with_memory_sink (fun () -> Solver.Obligations.solve_program program)

let kinds entries = List.map (fun (e : Journal.entry) -> Journal.event_kind e.ev) entries

(** Is [needles] a subsequence of [haystack] (in order, not contiguous)? *)
let rec subsequence needles haystack =
  match (needles, haystack) with
  | [], _ -> true
  | _, [] -> false
  | n :: ns, h :: hs -> if n = h then subsequence ns hs else subsequence needles hs

let replay_ok entries =
  match Journal.replay entries with
  | Ok t -> t
  | Error m -> Alcotest.failf "replay failed: %s" m

(* ------------------------------------------------------------------ *)
(* Replay validator: the event stream rebuilds to exactly the trees the
   solver returned directly, over the full 17-program corpus. *)

let test_replay_corpus () =
  List.iter
    (fun (e : Corpus.Harness.entry) ->
      let program = Corpus.Harness.load e in
      let report, entries = record_solve program in
      let tree = replay_ok entries in
      let attempts =
        List.concat_map
          (fun (r : Solver.Obligations.goal_report) -> r.attempts)
          report.reports
      in
      Alcotest.(check int)
        (e.id ^ ": one replayed root per solving attempt")
        (List.length attempts)
        (List.length tree.Journal.rt_roots);
      List.iter
        (fun (att : Solver.Trace.goal_node) ->
          match
            List.find_opt
              (fun (r : Journal.rgoal) -> r.Journal.rg_id = att.gid)
              tree.Journal.rt_roots
          with
          | None -> Alcotest.failf "%s: no replayed root for trace gid %d" e.id att.gid
          | Some root ->
              if not (Journal.equal_goal (Solver.Jlog.rtree_of_trace att) root) then
                Alcotest.failf "%s: replayed tree for gid %d differs from direct trace"
                  e.id att.gid)
        attempts)
    Corpus.Suite.entries

(* Every failed leaf of the extracted (bottom-up) view carries a stable
   trace_id resolvable in the journal, and every rejected candidate in a
   replayed failed leaf resolves to its rejecting unification event. *)
let test_failed_leaf_provenance () =
  List.iter
    (fun (e : Corpus.Harness.entry) ->
      let program = Corpus.Harness.load e in
      let report, entries = record_solve program in
      let tree = replay_ok entries in
      List.iter
        (fun (r : Solver.Obligations.goal_report) ->
          if r.status <> Solver.Obligations.Proved then begin
            let ptree = Argus.Extract.of_report r in
            List.iter
              (fun (n : Argus.Proof_tree.node) ->
                match n.kind with
                | Argus.Proof_tree.Goal g ->
                    if g.trace_id < 0 then
                      Alcotest.failf "%s: failed leaf without a trace_id" e.id;
                    if not (Hashtbl.mem tree.Journal.rt_goals g.trace_id) then
                      Alcotest.failf "%s: failed-leaf trace_id %d not in the journal"
                        e.id g.trace_id
                | Argus.Proof_tree.Cand _ -> ())
              (Argus.Proof_tree.failed_leaves ptree)
          end)
        report.reports;
      List.iter
        (fun (root : Journal.rgoal) ->
          List.iter
            (fun (leaf : Journal.rgoal) ->
              List.iter
                (fun (c : Journal.rcand) ->
                  if c.Journal.rc_failure <> None then
                    match Journal.rejecting_unify c with
                    | Some _ -> ()
                    | None ->
                        Alcotest.failf
                          "%s: rejected candidate #%d has no rejecting unify event"
                          e.id c.Journal.rc_id)
                leaf.Journal.rg_cands)
            (Journal.failed_leaves root))
        tree.Journal.rt_roots)
    Corpus.Suite.entries

(* ------------------------------------------------------------------ *)
(* §2 failure-mode event sequences *)

let corpus_entries id =
  let e = Option.get (Corpus.Suite.find id) in
  let _, entries = record_solve (Corpus.Harness.load e) in
  entries

(* §2.1 diesel: elided trait chains — where-clause obligations nest under
   the impl candidate, and the failing candidate records its unify. *)
let test_diesel_sequence () =
  let entries = corpus_entries "diesel-missing-join" in
  let ks = kinds entries in
  Alcotest.(check bool)
    "goal_enter → cand_enter → unify → cand_exit → cand_assembled → goal_exit" true
    (subsequence
       [ "goal_enter"; "cand_enter"; "unify"; "cand_exit"; "cand_assembled"; "goal_exit" ]
       ks);
  Alcotest.(check bool) "a where-clause subgoal is journaled" true
    (List.exists
       (fun (e : Journal.entry) ->
         match e.ev with
         | Journal.Goal_enter { prov = Journal.Impl_where _; _ } -> true
         | _ -> false)
       entries);
  Alcotest.(check bool) "a candidate is rejected by a recorded unify failure" true
    (List.exists
       (fun (e : Journal.entry) ->
         match e.ev with
         | Journal.Cand_exit { failure = Some _; _ } -> true
         | _ -> false)
       entries);
  (* round-trip the real stream through the wire format *)
  let back = Argus_json.Journal_codec.of_jsonl (Argus_json.Journal_codec.to_jsonl entries) in
  Alcotest.(check int) "round-trip preserves length" (List.length entries) (List.length back);
  List.iter2
    (fun a b ->
      if not (Journal.equal_entry a b) then
        Alcotest.failf "round-trip changed entry seq %d" a.Journal.seq)
    entries back

(* §2.2 ast: infinite recursion — the E0275 overflow surfaces as cycle /
   overflow events and an Overflow-flagged goal exit. *)
let test_ast_overflow_sequence () =
  let entries = corpus_entries "ast-overflow" in
  Alcotest.(check bool) "cycle or depth-limit overflow event present" true
    (List.exists
       (fun (e : Journal.entry) ->
         match e.ev with
         | Journal.Cycle_detected _ | Journal.Overflow_hit _ -> true
         | _ -> false)
       entries);
  Alcotest.(check bool) "a goal exits flagged Overflow" true
    (List.exists
       (fun (e : Journal.entry) ->
         match e.ev with
         | Journal.Goal_exit { flags; _ } -> List.mem Journal.Overflow flags
         | _ -> false)
       entries)

(* §2.3-style ambiguity: two applicable impls — the selection ambiguity
   is journaled and the goal exits flagged Ambiguous_selection. *)
let test_ambiguity_sequence () =
  let program =
    parse "struct A; trait T {} impl T for A {} impl<X> T for X {} goal A: T;"
  in
  let _, entries = record_solve program in
  Alcotest.(check bool) "ambiguity event with two successful candidates" true
    (List.exists
       (fun (e : Journal.entry) ->
         match e.ev with Journal.Ambiguity { succeeded = 2; _ } -> true | _ -> false)
       entries);
  Alcotest.(check bool) "goal exits flagged ambiguous-selection" true
    (List.exists
       (fun (e : Journal.entry) ->
         match e.ev with
         | Journal.Goal_exit { flags; _ } -> List.mem Journal.Ambiguous_selection flags
         | _ -> false)
       entries)

(* Method probing (§4): probe begin/end bracket the alternatives and the
   failed alternative is flagged speculative post-hoc. *)
let test_probe_sequence () =
  let program =
    parse
      "struct A; trait ToString {} trait CustomToString {} impl CustomToString for A {} \
       goal A: ToString; goal A: CustomToString;"
  in
  let alternatives =
    List.map (fun (g : Program.goal) -> g.goal_pred) (Program.goals program)
  in
  let (nodes, committed), entries =
    Journal.with_memory_sink (fun () ->
        Solver.Solve.solve_probe (Solver.Solve.create program) alternatives)
  in
  Alcotest.(check int) "two alternatives probed" 2 (List.length nodes);
  Alcotest.(check (option int)) "second alternative committed" (Some 1) committed;
  let ks = kinds entries in
  Alcotest.(check bool) "probe_begin → goal events → goal_flag → probe_end" true
    (subsequence [ "probe_begin"; "goal_enter"; "goal_exit"; "goal_flag"; "probe_end" ] ks);
  Alcotest.(check bool) "failed alternative flagged speculative" true
    (List.exists
       (fun (e : Journal.entry) ->
         match e.ev with
         | Journal.Goal_flag { flag = Journal.Speculative; _ } -> true
         | _ -> false)
       entries);
  let tree = replay_ok entries in
  Alcotest.(check int) "both probe roots replay" 2 (List.length tree.Journal.rt_roots);
  (* the replayed rejected root carries the post-hoc flag, like the trace *)
  List.iter
    (fun (n : Solver.Trace.goal_node) ->
      let r =
        List.find (fun (r : Journal.rgoal) -> r.Journal.rg_id = n.gid) tree.Journal.rt_roots
      in
      if not (Journal.equal_goal (Solver.Jlog.rtree_of_trace n) r) then
        Alcotest.failf "probe root gid %d: replay differs from trace" n.gid)
    nodes

(* Coherence overlap detection is journaled. *)
let test_overlap_event () =
  let program =
    parse "struct A; trait T {} impl T for A {} impl<X> T for X {}"
  in
  let overlaps, entries =
    Journal.with_memory_sink (fun () -> Solver.Coherence.check program)
  in
  Alcotest.(check int) "one overlap found" 1 (List.length overlaps);
  Alcotest.(check bool) "overlap_detected event emitted" true
    (List.exists
       (fun (e : Journal.entry) ->
         match e.ev with Journal.Overlap_detected _ -> true | _ -> false)
       entries)

(* ------------------------------------------------------------------ *)
(* Sink mechanics *)

let test_mute () =
  let (), entries =
    Journal.with_memory_sink (fun () ->
        Journal.mute ();
        Fun.protect ~finally:Journal.unmute (fun () ->
            ignore
              (Solver.Obligations.solve_program
                 (parse "struct A; trait T {} goal A: T;"))))
  in
  Alcotest.(check int) "muted solving emits nothing" 0 (List.length entries)

let test_disabled_is_quiet () =
  Journal.set_sink None;
  Alcotest.(check bool) "no sink → disabled" false (Journal.enabled ());
  (* emission with no sink must be a no-op, not an error *)
  Journal.emit (Journal.Probe_end { committed = None })

let test_jsonl_header_errors () =
  (* a v1 file may carry the retired cache_hit events: the header is
     refused before any of them is decoded *)
  List.iter
    (fun stream ->
      match Argus_json.Journal_codec.of_jsonl stream with
      | _ -> Alcotest.failf "wrong schema accepted: %S" stream
      | exception Argus_json.Decode.Decode_error e ->
          Alcotest.(check string) "refused at the header" "$.header" e.path)
    [
      "{\"schema\":\"argus.journal/v999\"}\n";
      "{\"schema\":\"argus.journal/v1\"}\n\
       {\"seq\":0,\"ts\":0,\"kind\":\"cache_hit\",\"goal\":0,\"tier\":\"tree\"}\n";
    ];
  (try
     ignore (Argus_json.Journal_codec.of_jsonl "");
     Alcotest.fail "empty stream accepted"
   with Argus_json.Decode.Decode_error _ -> ());
  try
    ignore (Argus_json.Journal_codec.of_jsonl "not json at all\n");
    Alcotest.fail "garbage accepted"
  with Argus_json.Decode.Decode_error _ -> ()

(* ------------------------------------------------------------------ *)
(* CLI observability contract.  Tests run in _build/default/test, with
   the CLI declared as a test dependency at ../bin/argus_cli.exe. *)

let cli = Filename.concat ".." (Filename.concat "bin" "argus_cli.exe")

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --profile / --trace-out / --events-out outputs are written even when
   the input fails to load (exit 2): the header and telemetry flush run
   through at_exit. *)
let test_cli_outputs_on_load_failure () =
  write_file "bad.trait" "struct A; trait T { goal A: T;";
  let code =
    Sys.command
      (Printf.sprintf
         "%s check --profile --trace-out bad_trace.json --events-out bad_events.jsonl \
          bad.trait > bad.out 2> bad.err"
         cli)
  in
  Alcotest.(check int) "load failure exits 2" 2 code;
  let entries = Argus_json.Journal_codec.of_jsonl (read_file "bad_events.jsonl") in
  Alcotest.(check int) "events file is valid and empty" 0 (List.length entries);
  (match Argus_json.Json.of_string (read_file "bad_trace.json") with
  | Argus_json.Json.List _ | Argus_json.Json.Obj _ -> ()
  | _ -> Alcotest.fail "trace output is not a JSON document");
  let err = read_file "bad.err" in
  Alcotest.(check bool) "telemetry report printed to stderr" true
    (String.length err > 0)

let test_cli_events_roundtrip () =
  (* the impl must share the goal's self head to survive fast-reject
     and leave a rejecting unify event for [explain] to name *)
  write_file "failing.trait"
    "struct A; struct B<X>; trait T {} impl T for B<A> {} goal B<B<A>>: T;";
  let code =
    Sys.command
      (Printf.sprintf "%s check --events-out run_events.jsonl failing.trait > run.out 2>&1"
         cli)
  in
  Alcotest.(check int) "trait error exits 1" 1 code;
  let entries = Argus_json.Journal_codec.of_jsonl (read_file "run_events.jsonl") in
  Alcotest.(check bool) "events streamed" true (List.length entries > 0);
  let tree = replay_ok entries in
  Alcotest.(check bool) "stream replays to at least one root" true
    (List.length tree.Journal.rt_roots >= 1);
  let code =
    Sys.command
      (Printf.sprintf "%s explain --failures run_events.jsonl > explain.out 2>&1" cli)
  in
  Alcotest.(check int) "explain exits 0" 0 code;
  let out = read_file "explain.out" in
  Alcotest.(check bool) "explain names the rejecting unify event" true
    (String.length out > 0
    &&
    let re = "unify event seq" in
    let rec contains i =
      i + String.length re <= String.length out
      && (String.sub out i (String.length re) = re || contains (i + 1))
    in
    contains 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "journal"
    [
      ( "replay validator",
        [
          Alcotest.test_case "corpus trees rebuild from events" `Quick test_replay_corpus;
          Alcotest.test_case "failed leaves resolve to events" `Quick
            test_failed_leaf_provenance;
        ] );
      ( "failure-mode sequences",
        [
          Alcotest.test_case "diesel elided chains + round-trip" `Quick test_diesel_sequence;
          Alcotest.test_case "ast overflow (E0275)" `Quick test_ast_overflow_sequence;
          Alcotest.test_case "ambiguous selection" `Quick test_ambiguity_sequence;
          Alcotest.test_case "method probing" `Quick test_probe_sequence;
          Alcotest.test_case "coherence overlap" `Quick test_overlap_event;
        ] );
      ( "sink",
        [
          Alcotest.test_case "mute suppresses emission" `Quick test_mute;
          Alcotest.test_case "disabled is quiet" `Quick test_disabled_is_quiet;
          Alcotest.test_case "jsonl header validation" `Quick test_jsonl_header_errors;
        ] );
      ( "cli",
        [
          Alcotest.test_case "outputs written on load failure" `Quick
            test_cli_outputs_on_load_failure;
          Alcotest.test_case "events-out → explain round trip" `Quick
            test_cli_events_roundtrip;
        ] );
    ]

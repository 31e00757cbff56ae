(** Tests for the solver search journal: replay validation and
    failed-leaf provenance over the corpus, event sequences for the §2 failure modes, JSONL round-trips,
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
   solver returned directly (the journal fuzz oracle), over every corpus
   program. *)

let test_replay_corpus () =
  List.iter
    (fun (e : Corpus.Harness.entry) ->
      match Fuzz.Oracle.check Fuzz.Oracle.Journal ~source:e.source with
      | Fuzz.Oracle.Pass -> ()
      | Fuzz.Oracle.Fail m -> Alcotest.failf "%s: %s" e.id m)
    Corpus.Suite.all

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

(* Nothing is evaluated off the record: committing a candidate writes
   back its probe's bindings instead of re-deriving them, so every goal
   the solver counts is a goal the journal opened.  (Normalization steps
   inside a candidate open goal frames of [Normalization] provenance
   without passing through goal evaluation; [solver.goals] excludes
   them.) *)
let test_goals_all_journaled () =
  List.iter
    (fun (e : Corpus.Harness.entry) ->
      let program = Corpus.Harness.load e in
      Telemetry.reset ();
      Telemetry.enable ();
      let _, entries = Fun.protect ~finally:Telemetry.disable (fun () -> record_solve program) in
      let enters =
        List.length
          (List.filter
             (fun (en : Journal.entry) ->
               match en.ev with
               | Journal.Goal_enter { prov = Journal.Normalization; _ } -> false
               | Journal.Goal_enter _ -> true
               | _ -> false)
             entries)
      in
      Alcotest.(check int)
        (e.id ^ ": solver.goals = goal_enter events")
        enters
        (Telemetry.counter_value "solver.goals"))
    Corpus.Suite.all

(* ------------------------------------------------------------------ *)
(* Sink mechanics *)

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
  (* an entry that fails to decode is reported at its line, numbered as
     for malformed JSON (the header is line 1), and at the field inside
     it; [key] is a dotted field path within the line's object *)
  let rec set keys value (j : Argus_json.Json.t) =
    match (keys, j) with
    | [], _ -> value
    | k :: rest, Argus_json.Json.Obj kvs ->
        Argus_json.Json.Obj
          (List.map (fun (k', v) -> (k', if k' = k then set rest value v else v)) kvs)
    | _ -> Alcotest.fail "journal line has no such field"
  in
  let lines =
    let _, entries = record_solve (parse "struct A; trait T {} impl T for A {} goal A: T;") in
    Array.of_list (String.split_on_char '\n' (Argus_json.Journal_codec.to_jsonl entries))
  in
  List.iter
    (fun (n, key, value, path, message) ->
      let ls = Array.copy lines in
      ls.(n - 1) <-
        Argus_json.Json.to_string
          (set (String.split_on_char '.' key) value (Argus_json.Json.of_string ls.(n - 1)));
      match Argus_json.Journal_codec.of_jsonl (String.concat "\n" (Array.to_list ls)) with
      | _ -> Alcotest.failf "corrupt %s on line %d accepted" key n
      | exception Argus_json.Decode.Decode_error e ->
          Alcotest.(check (pair string string))
            (Printf.sprintf "corrupt %s on line %d" key n)
            (path, message) (e.path, e.message))
    [
      (4, "kind", Argus_json.Json.String "bogus", "$.line[4]", "unknown event kind bogus");
      (5, "seq", Argus_json.Json.String "x", "$.line[5].seq", "expected an integer");
      ( 2,
        "pred.kind",
        Argus_json.Json.String "bogus",
        "$.line[2].pred",
        "unknown predicate kind bogus" );
    ];
  try
    ignore (Argus_json.Journal_codec.of_jsonl "not json at all\n");
    Alcotest.fail "garbage accepted"
  with Argus_json.Decode.Decode_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Wire-format golden: one event of each of the 18 kinds, covering every
   constructor of the result, provenance, flag, candidate-source and
   unify-failure payloads, pinned to its exact JSONL line. *)

let golden_events () =
  let span = Span.v ~file:"golden.trait" ~start_line:3 ~start_col:5 ~stop_line:3 ~stop_col:17 in
  let a = Ty.ctor (Path.local [ "A" ]) [] and b = Ty.ctor (Path.local [ "B" ]) [ Ty.param "X" ] in
  let t = Path.local [ "T" ] in
  let pred = Predicate.trait_ a (Ty.trait_ref t) in
  let proj = Ty.projection (Ty.param "X") (Ty.trait_ref (Path.local [ "Iterator" ])) "Item" in
  let enter id prov = Journal.Goal_enter { id; parent = Some 0; pred; depth = 1; prov } in
  let failed failure =
    Journal.(Cand_exit { id = 4; result = No; failure = Some failure })
  in
  Journal.
    [
      Goal_enter { id = 0; parent = None; pred; depth = 0; prov = Root { origin = "main"; span } };
      enter 1 (Impl_where { impl_id = 2; clause_idx = 1 });
      enter 1 (Param_env 0);
      enter 1 (Supertrait (Path.local [ "Super" ]));
      enter 1 (Builtin_req "sized");
      enter 1 Normalization;
      Goal_exit { id = 1; pred; result = Yes; flags = [ Overflow; Depth_limit ] };
      Goal_exit
        { id = 1; pred; result = Maybe; flags = [ Stateful; Speculative; Ambiguous_selection ] };
      Goal_exit { id = 0; pred; result = No; flags = [] };
      Goal_flag { id = 1; flag = Speculative };
      Cand_enter { id = 2; goal = 0; source = Impl { impl_id = 3; header = "impl<X> T for B<X>" } };
      Cand_enter { id = 3; goal = 0; source = Param_env_clause pred };
      Cand_enter { id = 4; goal = 0; source = Builtin "tuple" };
      failed (Head_mismatch (a, b));
      failed (Arity (Ty.tuple [ a ], Ty.tuple [ a; b ]));
      failed (Region_mismatch (Region.named "a", Region.static));
      failed (Occurs (4, Ty.ctor (Path.local [ "Vec" ]) [ Ty.infer 4 ]));
      Cand_exit { id = 4; result = Maybe; failure = Some (Projection_ambiguous (proj, Ty.int)) };
      Cand_exit { id = 2; result = Yes; failure = None };
      Cand_assembled { goal = 0; param_env = 1; impls = 2; builtin = 1 };
      Cand_commit { goal = 0; cand = 2 };
      Unify { node = Some 2; left = a; right = Ty.infer 7; failure = None };
      Unify { node = None; left = a; right = b; failure = Some (Head_mismatch (a, b)) };
      Snapshot_open { snap = 0; node = Some 2 };
      Snapshot_commit { snap = 0 };
      Snapshot_rollback { snap = 1 };
      Norm_resolved { id = 5; resolved = Some Ty.int };
      Norm_resolved { id = 5; resolved = None };
      Cycle_detected { id = 6; pred };
      Overflow_hit { id = 6; depth_limited = true };
      Ambiguity { id = 0; succeeded = 2 };
      Probe_begin { origin = "method"; alternatives = 2 };
      Probe_end { committed = Some 1 };
      Overlap_detected { trait_ = t; impl_a = 0; impl_b = 1; witness = a };
    ]
  |> List.mapi (fun i ev -> { Journal.seq = i; ts_ns = 1000 + i; ev })

let golden_lines =
  [
    {|{"seq":0,"ts":1000,"kind":"goal_enter","id":0,"parent":null,"pred":{"kind":"trait","self":{"kind":"adt","path":{"crate":"local","segments":["A"]},"args":[]},"trait_ref":{"trait":{"crate":"local","segments":["T"]},"args":[]}},"depth":0,"prov":{"p":"root","origin":"main","span":{"file":"golden.trait","start_line":3,"start_col":5,"stop_line":3,"stop_col":17}}}|};
    {|{"seq":1,"ts":1001,"kind":"goal_enter","id":1,"parent":0,"pred":{"kind":"trait","self":{"kind":"adt","path":{"crate":"local","segments":["A"]},"args":[]},"trait_ref":{"trait":{"crate":"local","segments":["T"]},"args":[]}},"depth":1,"prov":{"p":"impl_where","impl_id":2,"clause_idx":1}}|};
    {|{"seq":2,"ts":1002,"kind":"goal_enter","id":1,"parent":0,"pred":{"kind":"trait","self":{"kind":"adt","path":{"crate":"local","segments":["A"]},"args":[]},"trait_ref":{"trait":{"crate":"local","segments":["T"]},"args":[]}},"depth":1,"prov":{"p":"param_env","index":0}}|};
    {|{"seq":3,"ts":1003,"kind":"goal_enter","id":1,"parent":0,"pred":{"kind":"trait","self":{"kind":"adt","path":{"crate":"local","segments":["A"]},"args":[]},"trait_ref":{"trait":{"crate":"local","segments":["T"]},"args":[]}},"depth":1,"prov":{"p":"supertrait","trait":{"crate":"local","segments":["Super"]}}}|};
    {|{"seq":4,"ts":1004,"kind":"goal_enter","id":1,"parent":0,"pred":{"kind":"trait","self":{"kind":"adt","path":{"crate":"local","segments":["A"]},"args":[]},"trait_ref":{"trait":{"crate":"local","segments":["T"]},"args":[]}},"depth":1,"prov":{"p":"builtin_req","what":"sized"}}|};
    {|{"seq":5,"ts":1005,"kind":"goal_enter","id":1,"parent":0,"pred":{"kind":"trait","self":{"kind":"adt","path":{"crate":"local","segments":["A"]},"args":[]},"trait_ref":{"trait":{"crate":"local","segments":["T"]},"args":[]}},"depth":1,"prov":{"p":"normalization"}}|};
    {|{"seq":6,"ts":1006,"kind":"goal_exit","id":1,"pred":{"kind":"trait","self":{"kind":"adt","path":{"crate":"local","segments":["A"]},"args":[]},"trait_ref":{"trait":{"crate":"local","segments":["T"]},"args":[]}},"result":"yes","flags":["overflow","depth-limit"]}|};
    {|{"seq":7,"ts":1007,"kind":"goal_exit","id":1,"pred":{"kind":"trait","self":{"kind":"adt","path":{"crate":"local","segments":["A"]},"args":[]},"trait_ref":{"trait":{"crate":"local","segments":["T"]},"args":[]}},"result":"maybe","flags":["stateful","speculative","ambiguous-selection"]}|};
    {|{"seq":8,"ts":1008,"kind":"goal_exit","id":0,"pred":{"kind":"trait","self":{"kind":"adt","path":{"crate":"local","segments":["A"]},"args":[]},"trait_ref":{"trait":{"crate":"local","segments":["T"]},"args":[]}},"result":"no","flags":[]}|};
    {|{"seq":9,"ts":1009,"kind":"goal_flag","id":1,"flag":"speculative"}|};
    {|{"seq":10,"ts":1010,"kind":"cand_enter","id":2,"goal":0,"source":{"s":"impl","impl_id":3,"header":"impl<X> T for B<X>"}}|};
    {|{"seq":11,"ts":1011,"kind":"cand_enter","id":3,"goal":0,"source":{"s":"param_env","clause":{"kind":"trait","self":{"kind":"adt","path":{"crate":"local","segments":["A"]},"args":[]},"trait_ref":{"trait":{"crate":"local","segments":["T"]},"args":[]}}}}|};
    {|{"seq":12,"ts":1012,"kind":"cand_enter","id":4,"goal":0,"source":{"s":"builtin","name":"tuple"}}|};
    {|{"seq":13,"ts":1013,"kind":"cand_exit","id":4,"result":"no","failure":{"f":"head_mismatch","left":{"kind":"adt","path":{"crate":"local","segments":["A"]},"args":[]},"right":{"kind":"adt","path":{"crate":"local","segments":["B"]},"args":[{"ty":{"kind":"param","name":"X"}}]}}}|};
    {|{"seq":14,"ts":1014,"kind":"cand_exit","id":4,"result":"no","failure":{"f":"arity","left":{"kind":"tuple","elems":[{"kind":"adt","path":{"crate":"local","segments":["A"]},"args":[]}]},"right":{"kind":"tuple","elems":[{"kind":"adt","path":{"crate":"local","segments":["A"]},"args":[]},{"kind":"adt","path":{"crate":"local","segments":["B"]},"args":[{"ty":{"kind":"param","name":"X"}}]}]}}}|};
    {|{"seq":15,"ts":1015,"kind":"cand_exit","id":4,"result":"no","failure":{"f":"region_mismatch","left":"'a","right":"'static"}}|};
    {|{"seq":16,"ts":1016,"kind":"cand_exit","id":4,"result":"no","failure":{"f":"occurs","var":4,"ty":{"kind":"adt","path":{"crate":"local","segments":["Vec"]},"args":[{"ty":{"kind":"infer","id":4}}]}}}|};
    {|{"seq":17,"ts":1017,"kind":"cand_exit","id":4,"result":"maybe","failure":{"f":"projection_ambiguous","proj":{"self":{"kind":"param","name":"X"},"trait":{"trait":{"crate":"local","segments":["Iterator"]},"args":[]},"assoc":"Item","assoc_args":[]},"ty":{"kind":"i32"}}}|};
    {|{"seq":18,"ts":1018,"kind":"cand_exit","id":2,"result":"yes","failure":null}|};
    {|{"seq":19,"ts":1019,"kind":"cand_assembled","goal":0,"param_env":1,"impls":2,"builtin":1}|};
    {|{"seq":20,"ts":1020,"kind":"cand_commit","goal":0,"cand":2}|};
    {|{"seq":21,"ts":1021,"kind":"unify","node":2,"left":{"kind":"adt","path":{"crate":"local","segments":["A"]},"args":[]},"right":{"kind":"infer","id":7},"failure":null}|};
    {|{"seq":22,"ts":1022,"kind":"unify","node":null,"left":{"kind":"adt","path":{"crate":"local","segments":["A"]},"args":[]},"right":{"kind":"adt","path":{"crate":"local","segments":["B"]},"args":[{"ty":{"kind":"param","name":"X"}}]},"failure":{"f":"head_mismatch","left":{"kind":"adt","path":{"crate":"local","segments":["A"]},"args":[]},"right":{"kind":"adt","path":{"crate":"local","segments":["B"]},"args":[{"ty":{"kind":"param","name":"X"}}]}}}|};
    {|{"seq":23,"ts":1023,"kind":"snapshot_open","snap":0,"node":2}|};
    {|{"seq":24,"ts":1024,"kind":"snapshot_commit","snap":0}|};
    {|{"seq":25,"ts":1025,"kind":"snapshot_rollback","snap":1}|};
    {|{"seq":26,"ts":1026,"kind":"norm_resolved","id":5,"resolved":{"kind":"i32"}}|};
    {|{"seq":27,"ts":1027,"kind":"norm_resolved","id":5,"resolved":null}|};
    {|{"seq":28,"ts":1028,"kind":"cycle_detected","id":6,"pred":{"kind":"trait","self":{"kind":"adt","path":{"crate":"local","segments":["A"]},"args":[]},"trait_ref":{"trait":{"crate":"local","segments":["T"]},"args":[]}}}|};
    {|{"seq":29,"ts":1029,"kind":"overflow_hit","id":6,"depth_limited":true}|};
    {|{"seq":30,"ts":1030,"kind":"ambiguity","id":0,"succeeded":2}|};
    {|{"seq":31,"ts":1031,"kind":"probe_begin","origin":"method","alternatives":2}|};
    {|{"seq":32,"ts":1032,"kind":"probe_end","committed":1}|};
    {|{"seq":33,"ts":1033,"kind":"overlap_detected","trait":{"crate":"local","segments":["T"]},"impl_a":0,"impl_b":1,"witness":{"kind":"adt","path":{"crate":"local","segments":["A"]},"args":[]}}|};
  ]

let test_wire_golden () =
  let entries = golden_events () in
  Alcotest.(check int) "all 18 kinds" 18
    (List.length (List.sort_uniq compare (kinds entries)));
  Alcotest.(check (list string)) "exact JSONL lines" golden_lines
    (List.map
       (fun e -> Argus_json.Json.to_string (Argus_json.Journal_codec.entry_to_json e))
       entries);
  let back = Argus_json.Journal_codec.of_jsonl (Argus_json.Journal_codec.to_jsonl entries) in
  Alcotest.(check int) "decodes every line" (List.length entries) (List.length back);
  List.iter2
    (fun a b ->
      if not (Journal.equal_entry a b) then
        Alcotest.failf "golden entry seq %d decodes differently" a.Journal.seq)
    entries back

(* ------------------------------------------------------------------ *)
(* CLI observability contract, run in a temporary directory
   ({!Cli_fixture}). *)

open Cli_fixture

(* --profile / --trace-out / --events-out outputs are written even when
   the input fails to load (exit 2): the header and telemetry flush run
   through at_exit. *)
let test_cli_outputs_on_load_failure () =
  with_temp_dir @@ fun dir ->
  let file name = Filename.quote (Filename.concat dir name) in
  write_file (Filename.concat dir "bad.trait") "struct A; trait T { goal A: T;";
  let code =
    Sys.command
      (Printf.sprintf "%s check --profile --trace-out %s --events-out %s %s > %s 2> %s"
         cli (file "bad_trace.json") (file "bad_events.jsonl") (file "bad.trait")
         (file "bad.out") (file "bad.err"))
  in
  Alcotest.(check int) "load failure exits 2" 2 code;
  let read name = read_file (Filename.concat dir name) in
  let entries = Argus_json.Journal_codec.of_jsonl (read "bad_events.jsonl") in
  Alcotest.(check int) "events file is valid and empty" 0 (List.length entries);
  (match Argus_json.Json.of_string (read "bad_trace.json") with
  | Argus_json.Json.List _ | Argus_json.Json.Obj _ -> ()
  | _ -> Alcotest.fail "trace output is not a JSON document");
  let err = read "bad.err" in
  Alcotest.(check bool) "telemetry report printed to stderr" true
    (String.length err > 0)

let test_cli_events_roundtrip () =
  (* the impl must share the goal's self head to survive fast-reject
     and leave a rejecting unify event for [explain] to name *)
  with_temp_dir @@ fun dir ->
  let file name = Filename.quote (Filename.concat dir name) in
  write_file (Filename.concat dir "failing.trait")
    "struct A; struct B<X>; trait T {} impl T for B<A> {} goal B<B<A>>: T;";
  let code =
    Sys.command
      (Printf.sprintf "%s check --events-out %s %s > %s 2>&1" cli (file "run_events.jsonl")
         (file "failing.trait") (file "run.out"))
  in
  Alcotest.(check int) "trait error exits 1" 1 code;
  let read name = read_file (Filename.concat dir name) in
  let entries = Argus_json.Journal_codec.of_jsonl (read "run_events.jsonl") in
  Alcotest.(check bool) "events streamed" true (List.length entries > 0);
  let tree = replay_ok entries in
  Alcotest.(check bool) "stream replays to at least one root" true
    (List.length tree.Journal.rt_roots >= 1);
  let code =
    Sys.command
      (Printf.sprintf "%s explain --failures %s > %s 2>&1" cli (file "run_events.jsonl")
         (file "explain.out"))
  in
  Alcotest.(check int) "explain exits 0" 0 code;
  let out = read "explain.out" in
  Alcotest.(check bool) "explain names the rejecting unify event" true
    (contains ~needle:"unify event seq" out)

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
          Alcotest.test_case "every evaluated goal is journaled" `Quick
            test_goals_all_journaled;
        ] );
      ( "sink",
        [
          Alcotest.test_case "disabled is quiet" `Quick test_disabled_is_quiet;
          Alcotest.test_case "jsonl header validation" `Quick test_jsonl_header_errors;
          Alcotest.test_case "wire-format golden" `Quick test_wire_golden;
        ] );
      ( "cli",
        [
          Alcotest.test_case "outputs written on load failure" `Quick
            test_cli_outputs_on_load_failure;
          Alcotest.test_case "events-out → explain round trip" `Quick
            test_cli_events_roundtrip;
        ] );
    ]

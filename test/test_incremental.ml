(** Tests for incremental re-solving ({!Solver.Session} + the red-green
    machinery behind it): exact eviction — an edit evicts precisely the
    cache entries whose dependency sets the differ dirtied, and every
    other entry survives re-keyed and replays as a hit — survival across
    unrelated edits, the [incr.*] telemetry contract, the QCheck
    edit-script equivalence property (the [incremental] oracle: every
    step of a deterministic edit script re-solves byte-identically to a
    from-scratch run), and determinism of concurrent sessions across
    four domains. *)

open Trait_lang

let parse src = Resolve.program_of_string ~file:"test.trait" src

(* Incremental machinery assumes the cache is on; counters need the
   telemetry switch.  Leave state cleared either way. *)
let fresh_state () =
  Telemetry.enable ();
  Solver.Eval_cache.set_enabled true;
  Solver.Eval_cache.clear ()

let counter = Telemetry.counter_value

let report_fp (report : Solver.Obligations.report) =
  Argus_json.Json.to_string (Argus_json.Encode.report report)

(* ------------------------------------------------------------------ *)
(* Exact eviction: two independent goals, then remove the impl one of
   them depends on.  The differ dirties exactly [impls:T2]; the T2 entry
   is evicted (red), the T1 entry survives (green) and replays as a
   cache hit on the next resolve. *)

let two_goal_src = "struct A; struct B; trait T1 {} trait T2 {} impl T1 for A {} impl T2 for B {} goal A: T1; goal B: T2;"

let test_exact_eviction () =
  fresh_state ();
  let program = parse two_goal_src in
  let session = Solver.Session.create () in
  ignore (Solver.Session.load session program);
  ignore (Solver.Session.resolve session);
  Alcotest.(check int) "no errors on the base program" 0
    (List.length (Solver.Session.errors session));
  let ev0 = counter "incr.evicted" and sv0 = counter "incr.survived" in
  (* drop the LAST impl: `impl T2 for B` *)
  let edited = Fuzz.Edit.drop_impl program (-1) in
  let delta = Solver.Session.edit session edited in
  Alcotest.(check int) "one declaration changed" 1 delta.Solver.Session.d_changed;
  Alcotest.(check int) "exactly the T2 entry evicted" 1 delta.Solver.Session.d_evicted;
  Alcotest.(check int) "the T1 entry survives" 1 delta.Solver.Session.d_survived;
  Alcotest.(check int) "counter incr.evicted advanced by the delta" 1
    (counter "incr.evicted" - ev0);
  Alcotest.(check int) "counter incr.survived advanced by the delta" 1
    (counter "incr.survived" - sv0);
  (* the re-solve replays the survivor (hit) and re-derives the red goal *)
  let h0 = counter "cache.tree.hits" and m0 = counter "cache.tree.misses" in
  ignore (Solver.Session.resolve session);
  Alcotest.(check int) "green goal replays as a tree hit" 1
    (counter "cache.tree.hits" - h0);
  Alcotest.(check int) "red goal re-solves as a tree miss" 1
    (counter "cache.tree.misses" - m0);
  Alcotest.(check int) "goal B: T2 now fails" 1
    (List.length (Solver.Session.errors session))

(* ------------------------------------------------------------------ *)
(* Survival: an edit that touches nothing a cached entry consulted (an
   unused struct) evicts nothing, and the next resolve is all hits. *)

let test_survival_across_unrelated_edit () =
  fresh_state ();
  let program = parse two_goal_src in
  let session = Solver.Session.create () in
  ignore (Solver.Session.load session program);
  let base = report_fp (Solver.Session.resolve session) in
  let edited = Fuzz.Edit.apply program (Fuzz.Edit.Add_struct 7) in
  let delta = Solver.Session.edit session edited in
  Alcotest.(check int) "unrelated edit evicts nothing" 0
    delta.Solver.Session.d_evicted;
  Alcotest.(check int) "both entries survive" 2 delta.Solver.Session.d_survived;
  let h0 = counter "cache.tree.hits" and m0 = counter "cache.tree.misses" in
  let re = report_fp (Solver.Session.resolve session) in
  Alcotest.(check int) "all goals replay as hits" 2 (counter "cache.tree.hits" - h0);
  Alcotest.(check int) "no goal re-solves" 0 (counter "cache.tree.misses" - m0);
  Alcotest.(check string) "report identical across the unrelated edit" base re

(* A goal-only edit keeps the program stamp, so it is a no-op delta —
   goals are inputs, not cached context. *)
let test_goal_edit_is_free () =
  fresh_state ();
  let program = parse two_goal_src in
  let session = Solver.Session.create () in
  ignore (Solver.Session.load session program);
  ignore (Solver.Session.resolve session);
  let edited = Fuzz.Edit.apply program (Fuzz.Edit.Dup_goal 0) in
  let delta = Solver.Session.edit session edited in
  Alcotest.(check bool) "goal edit is a no-op delta" true
    (delta = Solver.Session.no_delta);
  ignore (Solver.Session.resolve session);
  Alcotest.(check int) "still no errors" 0
    (List.length (Solver.Session.errors session))

(* ------------------------------------------------------------------ *)
(* incr.resolves counts session resolves, not plain solver runs. *)

let test_resolve_counter () =
  fresh_state ();
  let program = parse two_goal_src in
  let session = Solver.Session.create () in
  ignore (Solver.Session.load session program);
  let r0 = counter "incr.resolves" in
  ignore (Solver.Session.resolve session);
  ignore (Solver.Session.resolve session);
  Alcotest.(check int) "two session resolves counted" 2
    (counter "incr.resolves" - r0);
  ignore (Solver.Obligations.solve_program program);
  Alcotest.(check int) "a plain solve is not a session resolve" 2
    (counter "incr.resolves" - r0)

(* ------------------------------------------------------------------ *)
(* QCheck: the incremental oracle over random programs — a 4-step edit
   script through a warm session stays byte-identical (reports, trees,
   diagnostics) to from-scratch solves.  Fixed seed so CI replays. *)

let arbitrary_iter = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 10_000)

let qcheck_incremental =
  QCheck.Test.make
    ~name:"edit-script re-solves are byte-identical (incremental oracle)" ~count:25
    arbitrary_iter (fun iter ->
      let source = Fuzz.Gen.render (Fuzz.Gen.generate ~seed:4242 ~iter ~size:2) in
      match Fuzz.Oracle.check Fuzz.Oracle.Incremental ~source with
      | Fuzz.Oracle.Pass -> true
      | Fuzz.Oracle.Fail m -> QCheck.Test.fail_reportf "iter %d: %s" iter m)

(* ------------------------------------------------------------------ *)
(* Determinism across domains: four sessions, one per domain, drive the
   same base → edit → resolve sequence against the shared global cache;
   every domain must produce the same report fingerprints. *)

let test_sessions_agree_across_domains () =
  fresh_state ();
  let src = Fuzz.Gen.render (Fuzz.Gen.generate ~seed:2025 ~iter:3 ~size:3) in
  let run () =
    let program = parse src in
    let edited = Fuzz.Edit.drop_impl program 0 in
    let session = Solver.Session.create () in
    ignore (Solver.Session.load session program);
    let a = report_fp (Solver.Session.resolve session) in
    ignore (Solver.Session.edit session edited);
    let b = report_fp (Solver.Session.resolve session) in
    ignore (Solver.Session.edit session program);
    let c = report_fp (Solver.Session.resolve session) in
    (a, b, c)
  in
  let domains = List.init 4 (fun _ -> Domain.spawn run) in
  let results = List.map Domain.join domains in
  let expected = run () in
  Alcotest.(check bool) "base re-solve returns to the base report" true
    (let a, _, c = expected in
     a = c);
  List.iteri
    (fun d r ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d agrees with the sequential session" d)
        true (r = expected))
    results

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "incremental"
    [
      ( "red-green",
        [
          Alcotest.test_case "exact eviction + survivor replay" `Quick
            test_exact_eviction;
          Alcotest.test_case "survival across an unrelated edit" `Quick
            test_survival_across_unrelated_edit;
          Alcotest.test_case "goal edits are free" `Quick test_goal_edit_is_free;
          Alcotest.test_case "incr.resolves counter" `Quick test_resolve_counter;
        ] );
      ( "oracle",
        [ QCheck_alcotest.to_alcotest ~long:false qcheck_incremental ] );
      ( "domains",
        [
          Alcotest.test_case "4 sessions agree across domains" `Quick
            test_sessions_agree_across_domains;
        ] );
    ]

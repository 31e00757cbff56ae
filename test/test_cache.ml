(** Tests for the performance layer: the hash-consing interner, goal
    canonicalization, the substitution sharing fast path, and the
    two-tier evaluation cache — including the load-bearing property that
    caching is {e observationally invisible}: cache-on and cache-off runs
    produce structurally identical proof trees and identical journal
    streams over the whole corpus — and the cache's lifetime across a
    session's edits. *)

open Trait_lang

let parse src = Resolve.program_of_string ~file:"test.trait" src

let fresh_cache () =
  Solver.Eval_cache.set_enabled true;
  Solver.Eval_cache.clear ()

(* ------------------------------------------------------------------ *)
(* QCheck properties: interner and substitution sharing *)

let ty_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Ty.Unit;
        return Ty.Int;
        return Ty.Str;
        map (fun i -> Ty.infer (abs i mod 5)) int;
        map (fun b -> Ty.param (if b then "T" else "U")) bool;
        return (Ty.ctor (Path.local [ "A" ]) []);
      ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          (1, map (fun t -> Ty.ref_ t) (node (depth - 1)));
          (1, map (fun t -> Ty.ctor (Path.external_ "c" [ "B" ]) [ t ]) (node (depth - 1)));
          (1, map2 (fun a b -> Ty.tuple [ a; b ]) (node (depth - 1)) (node (depth - 1)));
          (1, map2 (fun a b -> Ty.fn_ptr [ a ] b) (node (depth - 1)) (node (depth - 1)));
        ]
  in
  node 4

let arbitrary_ty = QCheck.make ~print:(fun t -> Pretty.ty ~cfg:Pretty.verbose t) ty_gen

let arbitrary_ty_pair =
  QCheck.make
    ~print:(fun (a, b) ->
      Pretty.ty ~cfg:Pretty.verbose a ^ " / " ^ Pretty.ty ~cfg:Pretty.verbose b)
    QCheck.Gen.(pair ty_gen ty_gen)

let prop_intern_iff =
  QCheck.Test.make ~name:"interned types: structurally equal iff physically equal"
    ~count:500 arbitrary_ty_pair (fun (a, b) ->
      let ia = Interner.ty a and ib = Interner.ty b in
      Ty.equal a b = (ia == ib))

let prop_intern_idempotent =
  QCheck.Test.make ~name:"interning is idempotent (and preserves structure)" ~count:200
    arbitrary_ty (fun t ->
      let i = Interner.ty t in
      Interner.ty i == i && Ty.equal t i)

let prop_subst_empty_physical =
  QCheck.Test.make ~name:"empty substitution returns its input physically" ~count:200
    arbitrary_ty (fun t -> Subst.ty Subst.empty t == t)

let prop_subst_unbound_physical =
  QCheck.Test.make ~name:"substitution binding nothing in the term is physically id"
    ~count:200 arbitrary_ty (fun t ->
      (* the generator only ever emits params T and U *)
      let s = Subst.add_ty "Zed" Ty.Int Subst.empty in
      Subst.ty s t == t)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_intern_iff;
      prop_intern_idempotent;
      prop_subst_empty_physical;
      prop_subst_unbound_physical;
    ]

(* ------------------------------------------------------------------ *)
(* Canonicalization *)

let trait_pred self_ty =
  Predicate.Trait { self_ty; trait_ref = { Ty.trait = Path.local [ "Tr" ]; args = [] } }

let test_canonical_ground () =
  let p = trait_pred (Ty.tuple [ Ty.Int; Ty.Str ]) in
  let c = Solver.Canonical.canonicalize_resolved p in
  Alcotest.(check int) "no canonical vars in a ground goal" 0 c.Solver.Canonical.c_vars;
  Alcotest.(check bool)
    "ground canonical form is the interned predicate" true
    (c.Solver.Canonical.c_pred == Interner.predicate p)

let test_canonical_renumbers () =
  let p = trait_pred (Ty.tuple [ Ty.infer 7; Ty.infer 3; Ty.infer 7 ]) in
  let c = Solver.Canonical.canonicalize_resolved p in
  Alcotest.(check int) "two distinct vars" 2 c.Solver.Canonical.c_vars;
  let expected = trait_pred (Ty.tuple [ Ty.infer 0; Ty.infer 1; Ty.infer 0 ]) in
  Alcotest.(check bool)
    "vars renumbered in order of first appearance" true
    (Predicate.equal c.Solver.Canonical.c_pred expected)

let test_canonical_alpha_equivalent () =
  let a = trait_pred (Ty.tuple [ Ty.infer 5; Ty.infer 9 ]) in
  let b = trait_pred (Ty.tuple [ Ty.infer 1; Ty.infer 2 ]) in
  let ca = Solver.Canonical.canonicalize_resolved a in
  let cb = Solver.Canonical.canonicalize_resolved b in
  Alcotest.(check bool)
    "alpha-equivalent goals share one canonical (interned) form" true
    (ca.Solver.Canonical.c_pred == cb.Solver.Canonical.c_pred);
  Alcotest.(check int) "same var count" ca.Solver.Canonical.c_vars cb.Solver.Canonical.c_vars

(* ------------------------------------------------------------------ *)
(* Result tier: Solve.evaluate memoizes verdicts across solver states *)

let test_result_tier_memoizes () =
  fresh_cache ();
  let program = parse "struct A; trait T {} impl T for A {} goal A: T;" in
  let pred = (List.hd (Program.goals program)).Program.goal_pred in
  let eval () =
    let st = Solver.Solve.create program in
    Solver.Solve.evaluate st pred
  in
  Telemetry.reset ();
  Telemetry.enable ();
  let r1 = eval () in
  let misses = Telemetry.counter_value "cache.result.misses" in
  let r2 = eval () in
  let hits = Telemetry.counter_value "cache.result.hits" in
  Telemetry.disable ();
  Alcotest.(check bool) "first verdict is Yes" true (Solver.Res.is_yes r1);
  Alcotest.(check bool) "second verdict is Yes" true (Solver.Res.is_yes r2);
  Alcotest.(check bool) "first evaluation missed" true (misses >= 1);
  Alcotest.(check bool) "second evaluation hit" true (hits >= 1);
  Alcotest.(check bool)
    "one result entry live" true
    ((Solver.Eval_cache.stats ()).cs_result >= 1)

let test_no_cache_when_disabled () =
  fresh_cache ();
  Solver.Eval_cache.set_enabled false;
  let program = parse "struct A; trait T {} impl T for A {} goal A: T;" in
  let pred = (List.hd (Program.goals program)).Program.goal_pred in
  let st = Solver.Solve.create program in
  ignore (Solver.Solve.evaluate st pred);
  let s = Solver.Eval_cache.stats () in
  Solver.Eval_cache.set_enabled true;
  Alcotest.(check int) "no tree entries stored while disabled" 0 s.cs_tree;
  Alcotest.(check int) "no result entries stored while disabled" 0 s.cs_result

(* ------------------------------------------------------------------ *)
(* LRU bound *)

let test_lru_bound () =
  fresh_cache ();
  let ctx = Solver.Eval_cache.make_ctx ~stamp:424242 ~depth_limit:64 [] in
  let key i =
    let pred = trait_pred (Ty.ctor (Path.local [ "S" ^ string_of_int i ]) []) in
    Solver.Eval_cache.result_key ctx (Solver.Canonical.canonicalize_resolved pred)
  in
  let hits i = Solver.Eval_cache.find_result (key i) = Some Solver.Res.Yes in
  let capacity = 16 * 1024 in
  (* The tier holds 16 × 1024 entries before anything goes. *)
  for i = 0 to capacity - 1 do
    Solver.Eval_cache.insert_result (key i) Solver.Res.Yes
  done;
  Alcotest.(check int) "a full tier, nothing evicted" capacity
    (Solver.Eval_cache.stats ()).cs_result;
  (* Overfill it: one LRU order across the whole tier decides what goes.
     The newest key and the touched key 1 survive; key 0, the oldest,
     does not. *)
  ignore (hits 1);
  let last = 20_000 in
  for i = capacity to last do
    Solver.Eval_cache.insert_result (key i) Solver.Res.Yes
  done;
  let s = Solver.Eval_cache.stats () in
  Alcotest.(check bool) "result tier stays bounded" true (s.cs_result <= capacity);
  Alcotest.(check bool) "eviction keeps recent entries" true (s.cs_result > 0);
  Alcotest.(check bool) "the newest key still hits" true (hits last);
  Alcotest.(check bool) "a recently read key still hits" true (hits 1);
  Alcotest.(check bool) "the oldest key was evicted" false (hits 0);
  Solver.Eval_cache.clear ()

(* ------------------------------------------------------------------ *)
(* Corpus-wide equivalence: cache on/off produce identical proof trees *)

let check_same_report id (off : Solver.Obligations.report) (on : Solver.Obligations.report) =
  Alcotest.(check int)
    (id ^ ": same number of goal reports")
    (List.length off.reports) (List.length on.reports);
  Alcotest.(check int) (id ^ ": same fixpoint rounds") off.rounds on.rounds;
  List.iter2
    (fun (a : Solver.Obligations.goal_report) (b : Solver.Obligations.goal_report) ->
      Alcotest.(check bool) (id ^ ": same status") true (a.status = b.status);
      Alcotest.(check int)
        (id ^ ": same attempt count")
        (List.length a.attempts) (List.length b.attempts);
      List.iter2
        (fun (ta : Solver.Trace.goal_node) (tb : Solver.Trace.goal_node) ->
          if
            not
              (Journal.equal_goal
                 (Solver.Jlog.rtree_of_trace ta)
                 (Solver.Jlog.rtree_of_trace tb))
          then Alcotest.failf "%s: proof tree differs (gid %d vs %d)" id ta.gid tb.gid)
        a.attempts b.attempts)
    off.reports on.reports

(** For every corpus program: solve with the cache off, cold, and warm
    (the warm run exercises cross-run replay), resetting the journal id
    counter each time so gids are comparable.  All three runs must agree
    on statuses, rounds, and — node for node, id for id — the trees. *)
let test_corpus_equivalence () =
  List.iter
    (fun (e : Corpus.Harness.entry) ->
      let program = Corpus.Harness.load e in
      Solver.Eval_cache.set_enabled false;
      Journal.reset ();
      let off = Solver.Obligations.solve_program program in
      fresh_cache ();
      Journal.reset ();
      let cold = Solver.Obligations.solve_program program in
      Journal.reset ();
      let warm = Solver.Obligations.solve_program program in
      check_same_report (e.id ^ " (cold)") off cold;
      check_same_report (e.id ^ " (warm)") off warm)
    (Corpus.Suite.entries @ Corpus.Suite.extended)

(* ------------------------------------------------------------------ *)
(* Journal streams: a recording solve never touches the cache *)

let cache_counters () =
  List.filter
    (fun (name, _) -> String.starts_with ~prefix:"cache." name)
    (Telemetry.snapshot ()).sn_counters

(** For each program: record a cache-off journal, warm the cache with an
    unjournaled run, then record again with the cache on.  The two
    streams must be equal line for line (timestamps zeroed), and the
    recording must leave the cache's entries and every [cache.*]
    counter as they were. *)
let test_journal_stream_equivalence () =
  let record program =
    Journal.reset ();
    Solver.Infer_ctx.reset_snapshot_serial ();
    let _, entries =
      Journal.with_memory_sink (fun () -> Solver.Obligations.solve_program program)
    in
    List.map
      (fun (en : Journal.entry) ->
        Argus_json.Json.to_string
          (Argus_json.Journal_codec.entry_to_json { en with ts_ns = 0 }))
      entries
  in
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  List.iter
    (fun id ->
      let program = Corpus.Harness.load (Option.get (Corpus.Suite.find id)) in
      Solver.Eval_cache.set_enabled false;
      let off = record program in
      fresh_cache ();
      ignore (Solver.Obligations.solve_program program);
      let stats = Solver.Eval_cache.stats () in
      (* ast-overflow's subtrees are all overflow-flagged, so nothing is
         ever inserted — by design. *)
      if id <> "ast-overflow" then
        Alcotest.(check bool) (id ^ ": the unjournaled run filled the cache") true
          (stats.cs_tree > 0);
      let counters = cache_counters () in
      let on = record program in
      Alcotest.(check (list string)) (id ^ ": cache-on stream = cache-off stream") off on;
      Alcotest.(check bool) (id ^ ": cache entries unchanged") true
        (Solver.Eval_cache.stats () = stats);
      Alcotest.(check (list (pair string int)))
        (id ^ ": cache.* counters unchanged") counters (cache_counters ()))
    [ "diesel-missing-join"; "bevy-errant-param"; "ast-overflow"; "axum-body-first" ]

(* ------------------------------------------------------------------ *)
(* Telemetry visibility *)

let test_cache_counters_in_telemetry () =
  fresh_cache ();
  let e = Option.get (Corpus.Suite.find "diesel-missing-join") in
  let program = Corpus.Harness.load e in
  ignore (Solver.Obligations.solve_program program);
  Telemetry.reset ();
  Telemetry.enable ();
  ignore (Solver.Obligations.solve_program program);
  Telemetry.disable ();
  Alcotest.(check bool)
    "warm run counts tree hits" true
    (Telemetry.counter_value "cache.tree.hits" > 0)

(* ------------------------------------------------------------------ *)
(* Sessions: cache lifetime across edits *)

(* A goal-only edit keeps the program stamp: nothing is evicted, and the
   next resolve is served from the tree tier. *)
let test_goal_edit_is_free () =
  fresh_cache ();
  let program =
    parse
      "struct A; struct B; trait T1 {} trait T2 {} impl T1 for A {} impl T2 for B {} \
       goal A: T1; goal B: T2;"
  in
  let session = Solver.Session.create () in
  ignore (Solver.Session.load session program);
  ignore (Solver.Session.resolve session);
  let before = Solver.Eval_cache.stats () in
  let edited = Fuzz.Edit.apply program (Fuzz.Edit.Dup_goal 0) in
  let delta = Solver.Session.edit session edited in
  Alcotest.(check int) "goal edit evicts nothing" 0 delta.Solver.Session.d_evicted;
  Alcotest.(check bool) "cache untouched by the edit" true
    (Solver.Eval_cache.stats () = before);
  Telemetry.reset ();
  Telemetry.enable ();
  let report = Solver.Session.resolve session in
  Telemetry.disable ();
  Alcotest.(check int) "every goal replays as a tree hit"
    (List.length report.Solver.Obligations.reports)
    (Telemetry.counter_value "cache.tree.hits");
  Alcotest.(check int) "no goal re-solves" 0 (Telemetry.counter_value "cache.tree.misses");
  Alcotest.(check int) "still no errors" 0 (List.length (Solver.Session.errors session))

(* One session fed 1,000 freshly parsed versions of a corpus program: each
   edit evicts its predecessor's stamp, so the cache never holds more
   than one version's entries. *)
let test_versions_do_not_accumulate () =
  fresh_cache ();
  let e = Option.get (Corpus.Suite.find "diesel-missing-join") in
  let session = Solver.Session.create () in
  ignore (Solver.Session.load session (Corpus.Harness.load e));
  ignore (Solver.Session.resolve session);
  let one = Solver.Eval_cache.stats () in
  Alcotest.(check bool) "one version fills the tree tier" true (one.cs_tree > 0);
  for i = 2 to 1000 do
    let delta = Solver.Session.edit session (Corpus.Harness.load e) in
    if delta.Solver.Session.d_evicted <> one.cs_tree + one.cs_result then
      Alcotest.failf "version %d: evicted %d entries, expected %d" i
        delta.Solver.Session.d_evicted (one.cs_tree + one.cs_result);
    ignore (Solver.Session.resolve session);
    let s = Solver.Eval_cache.stats () in
    if s.cs_tree > one.cs_tree || s.cs_result > one.cs_result then
      Alcotest.failf "version %d: cache holds %d tree / %d result entries, one version has %d / %d"
        i s.cs_tree s.cs_result one.cs_tree one.cs_result
  done;
  Solver.Eval_cache.clear ()

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cache"
    [
      ("properties", qcheck_tests);
      ( "canonical",
        [
          Alcotest.test_case "ground goals" `Quick test_canonical_ground;
          Alcotest.test_case "renumbering" `Quick test_canonical_renumbers;
          Alcotest.test_case "alpha equivalence" `Quick test_canonical_alpha_equivalent;
        ] );
      ( "tiers",
        [
          Alcotest.test_case "result tier memoizes" `Quick test_result_tier_memoizes;
          Alcotest.test_case "disabled stores nothing" `Quick test_no_cache_when_disabled;
          Alcotest.test_case "lru bound" `Quick test_lru_bound;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "corpus proof trees" `Quick test_corpus_equivalence;
          Alcotest.test_case "journal streams" `Quick test_journal_stream_equivalence;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "counters visible" `Quick test_cache_counters_in_telemetry ] );
      ( "red-green",
        [ Alcotest.test_case "goal edits are free" `Quick test_goal_edit_is_free ] );
      ( "session",
        [
          Alcotest.test_case "1,000 versions hold one version's entries" `Quick
            test_versions_do_not_accumulate;
        ] );
    ]

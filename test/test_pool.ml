(** The domain pool: ordered results, exception propagation, clean
    shutdown, byte-identical corpus solving on worker domains, and
    solving sessions on concurrent domains sharing the eval cache. *)

exception Boom of int

(* ------------------------------------------------------------------ *)
(* Ordered results *)

let test_map_ordered () =
  let pool = Pool.create ~jobs:4 in
  let results = Pool.map pool (fun i -> i * i) (List.init 100 Fun.id) in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "squares in input order"
    (List.init 100 (fun i -> i * i))
    results

(* Force a completion schedule that inverts submission order: task 0
   spins until every later task has finished, task 1 until every task
   after it has, and so on.  With [jobs] = task count, every task runs
   concurrently, so the last submitted task completes first — results
   must still come back in input order. *)
let test_map_ordered_under_reversed_completion () =
  let n = 4 in
  let pool = Pool.create ~jobs:n in
  let remaining = Atomic.make n in
  let work i =
    (* wait until all tasks after [i] have decremented [remaining] *)
    while Atomic.get remaining > i + 1 do
      Domain.cpu_relax ()
    done;
    Atomic.decr remaining;
    i * 10
  in
  let results = Pool.map pool work (List.init n Fun.id) in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "ordered despite reverse completion"
    (List.init n (fun i -> i * 10))
    results

(* ------------------------------------------------------------------ *)
(* Exception propagation *)

let test_exception_propagates () =
  let pool = Pool.create ~jobs:2 in
  let raised =
    try
      ignore (Pool.map pool (fun i -> if i = 3 then raise (Boom i) else i) (List.init 8 Fun.id));
      None
    with Boom i -> Some i
  in
  Alcotest.(check (option int)) "worker exception reaches the caller" (Some 3) raised;
  (* the pool survives a failed batch: the queue drained, workers live *)
  let ok = Pool.map pool (fun i -> i + 1) [ 1; 2; 3 ] in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "pool usable after a failed batch" [ 2; 3; 4 ] ok

let test_first_failing_index_wins () =
  let pool = Pool.create ~jobs:4 in
  let raised =
    try
      ignore
        (Pool.map pool
           (fun i -> if i >= 2 then raise (Boom i) else i)
           (List.init 8 Fun.id));
      None
    with Boom i -> Some i
  in
  Pool.shutdown pool;
  Alcotest.(check (option int)) "earliest failing input's exception" (Some 2) raised

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let test_shutdown_joins () =
  let pool = Pool.create ~jobs:3 in
  ignore (Pool.map pool succ [ 1; 2; 3; 4; 5 ]);
  Pool.shutdown pool;
  (* idempotent *)
  Pool.shutdown pool;
  Alcotest.(check int) "jobs recorded" 3 (Pool.jobs pool)

let test_create_rejects_nonpositive () =
  let rejected jobs =
    match Pool.create ~jobs with
    | exception Invalid_argument _ -> true
    | p ->
        Pool.shutdown p;
        false
  in
  Alcotest.(check bool) "jobs = 0 rejected" true (rejected 0);
  Alcotest.(check bool) "jobs = -2 rejected" true (rejected (-2))

let test_empty_and_singleton () =
  let pool = Pool.create ~jobs:2 in
  let empty = Pool.map pool succ [] in
  let one = Pool.map pool succ [ 41 ] in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "empty batch" [] empty;
  Alcotest.(check (list int)) "singleton batch" [ 42 ] one

(* ------------------------------------------------------------------ *)
(* Determinism on worker domains.  The interner, journal and snapshot
   serials are domain-local and the evaluation cache is sharded so that
   serve sessions can run on pool workers.  Solving a corpus program on
   a worker must therefore match solving it on the main domain byte for
   byte: proof trees node-for-node and id-for-id, diagnostics, journal
   JSONL — cache on and off, journal attached and not. *)

(* Solve every entry, on [pool]'s workers when given, else in order on
   the calling domain. *)
let solve_all ?pool ~journal entries =
  Solver.Eval_cache.clear ();
  let solve = Corpus.Harness.solve_unit ~journal in
  match pool with
  | Some p -> Pool.map p solve entries
  | None -> List.map solve entries

let with_pool f =
  let pool = Pool.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let check_config ~cache ~journal () =
  let entries = Corpus.Suite.entries in
  Alcotest.(check int) "the 17-program suite" 17 (List.length entries);
  Solver.Eval_cache.set_enabled cache;
  let seq = solve_all ~journal entries in
  let par = with_pool (fun pool -> solve_all ~pool ~journal entries) in
  Solver.Eval_cache.set_enabled true;
  Solver.Eval_cache.clear ();
  List.iter2
    (fun (a : Corpus.Harness.unit_result) (b : Corpus.Harness.unit_result) ->
      Alcotest.(check string)
        (a.b_entry.id ^ ": worker output byte-identical to the main domain's")
        (Fuzz.Oracle.fingerprint a) (Fuzz.Oracle.fingerprint b);
      if journal then
        Alcotest.(check bool) (a.b_entry.id ^ ": journal recorded") true (a.b_journal <> []))
    seq par

(* A journal recorded on a worker replays on its own: each stream starts
   at ID 0 and rebuilds a search forest. *)
let test_worker_journals_replay () =
  let results = with_pool (fun pool -> solve_all ~pool ~journal:true Corpus.Suite.entries) in
  List.iter
    (fun (b : Corpus.Harness.unit_result) ->
      match Journal.replay b.b_journal with
      | Ok tree ->
          Alcotest.(check bool)
            (b.b_entry.id ^ ": replayed forest has roots")
            true
            (tree.Journal.rt_roots <> [])
      | Error m -> Alcotest.fail (b.b_entry.id ^ ": journal does not replay: " ^ m))
    results

(* Four sessions, one per domain, drive the same base → edit → base
   sequence against the shared global cache; every domain must produce
   the same report fingerprints as a sequential session. *)
let test_sessions_agree_across_domains () =
  Solver.Eval_cache.set_enabled true;
  Solver.Eval_cache.clear ();
  let src = Fuzz.Gen.render (Fuzz.Gen.generate ~seed:2025 ~iter:3 ~size:3) in
  let report_fp report = Argus_json.Json.to_string (Argus_json.Encode.report report) in
  let run () =
    let program = Trait_lang.Resolve.program_of_string ~file:"test.trait" src in
    let edited = Fuzz.Edit.apply program (Fuzz.Edit.Remove_impl 0) in
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
  Solver.Eval_cache.clear ();
  Alcotest.(check bool) "base re-solve returns to the base report" true
    (let a, _, c = expected in
     a = c);
  List.iteri
    (fun d r ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d agrees with the sequential session" d)
        true (r = expected))
    results

let () =
  Alcotest.run "pool"
    [
      ( "map",
        [
          Alcotest.test_case "ordered results" `Quick test_map_ordered;
          Alcotest.test_case "ordered under reversed completion" `Quick
            test_map_ordered_under_reversed_completion;
          Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
        ] );
      ( "errors",
        [
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "first failing index wins" `Quick
            test_first_failing_index_wins;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "shutdown joins cleanly" `Quick test_shutdown_joins;
          Alcotest.test_case "nonpositive jobs rejected" `Quick
            test_create_rejects_nonpositive;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "cache off, journal on" `Quick
            (check_config ~cache:false ~journal:true);
          Alcotest.test_case "cache on, journal on" `Quick
            (check_config ~cache:true ~journal:true);
          Alcotest.test_case "cache off, journal off" `Quick
            (check_config ~cache:false ~journal:false);
          Alcotest.test_case "cache on, journal off" `Quick
            (check_config ~cache:true ~journal:false);
        ] );
      ( "replay",
        [
          Alcotest.test_case "per-unit streams replay" `Quick
            test_worker_journals_replay;
        ] );
      ( "domains",
        [
          Alcotest.test_case "4 sessions agree across domains" `Quick
            test_sessions_agree_across_domains;
        ] );
    ]

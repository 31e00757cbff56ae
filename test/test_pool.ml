(** The sequential [Pool] stand-in: in-order results, exceptions raised
    in the caller, the [jobs < 1] rejection, and per-unit journals that
    replay on their own. *)

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
  Alcotest.(check (option int)) "the exception reaches the caller" (Some 3) raised;
  let ok = Pool.map pool (fun i -> i + 1) [ 1; 2; 3 ] in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "pool usable after a failed batch" [ 2; 3; 4 ] ok

let test_first_failing_index_wins () =
  let pool = Pool.create ~jobs:4 in
  let ran = ref [] in
  let raised =
    try
      ignore
        (Pool.map pool
           (fun i ->
             ran := i :: !ran;
             if i >= 2 then raise (Boom i) else i)
           (List.init 8 Fun.id));
      None
    with Boom i -> Some i
  in
  Pool.shutdown pool;
  Alcotest.(check (option int)) "earliest failing input's exception" (Some 2) raised;
  Alcotest.(check (list int)) "nothing runs after it" [ 2; 1; 0 ] !ran

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

(* [shutdown] does nothing: calling it twice is fine, and so is using
   the pool afterwards. *)
let test_shutdown_joins () =
  let pool = Pool.create ~jobs:3 in
  ignore (Pool.map pool succ [ 1; 2; 3; 4; 5 ]);
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.(check (list int)) "map after shutdown" [ 2 ] (Pool.map pool succ [ 1 ])

let test_create_rejects_nonpositive () =
  let rejected jobs =
    match Pool.create ~jobs with
    | exception Invalid_argument _ -> true
    | p ->
        Pool.shutdown p;
        false
  in
  Alcotest.(check bool) "jobs = 0 rejected" true (rejected 0);
  Alcotest.(check bool) "jobs = -2 rejected" true (rejected (-2));
  Alcotest.(check bool) "jobs = 1 accepted" false (rejected 1)

let test_empty_and_singleton () =
  let pool = Pool.create ~jobs:2 in
  let empty = Pool.map pool succ [] in
  let one = Pool.map pool succ [ 41 ] in
  Pool.shutdown pool;
  Alcotest.(check (list int)) "empty batch" [] empty;
  Alcotest.(check (list int)) "singleton batch" [ 42 ] one

(* ------------------------------------------------------------------ *)
(* A journal recorded for one corpus unit, with the journal IDs and
   snapshot serial reset first, replays on its own: each stream starts
   at ID 0 and rebuilds a search forest. *)

let test_unit_journals_replay () =
  List.iter
    (fun (e : Corpus.Harness.entry) ->
      Journal.reset ();
      Solver.Infer_ctx.reset_snapshot_serial ();
      let _, entries = Journal.with_memory_sink (fun () -> Corpus.Harness.solve e) in
      match Journal.replay entries with
      | Ok tree ->
          Alcotest.(check bool)
            (e.id ^ ": replayed forest has roots")
            true
            (tree.Journal.rt_roots <> [])
      | Error m -> Alcotest.fail (e.id ^ ": journal does not replay: " ^ m))
    Corpus.Suite.entries

let () =
  Alcotest.run "pool"
    [
      ( "map",
        [
          Alcotest.test_case "ordered results" `Quick test_map_ordered;
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
      ( "replay",
        [
          Alcotest.test_case "per-unit streams replay" `Quick test_unit_journals_replay;
        ] );
    ]

(** Property and regression suite for the lib/fuzz differential-testing
    stack: generator determinism, oracle properties over random
    programs, the corpus round-trip regression, every oracle over every
    corpus program, shrinker
    convergence, lexer/parser edge cases, and the [argus fuzz] CLI
    negative paths. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Generator *)

let test_generator_deterministic () =
  let render i = Fuzz.Gen.render (Fuzz.Gen.generate ~seed:99 ~iter:i ~size:2) in
  check_string "same seed and iter render identically" (render 7) (render 7);
  check_bool "different iters diverge somewhere" true
    (List.exists (fun i -> render i <> render (i + 50)) [ 0; 1; 2; 3; 4 ])

let test_generator_sized () =
  let count size =
    Fuzz.Gen.decl_count (Fuzz.Gen.generate ~seed:5 ~iter:3 ~size)
  in
  check_bool "positive declaration count" true (count 1 > 0);
  check_bool "size knob grows programs (on average)" true
    (let total s =
       List.fold_left ( + ) 0
         (List.init 20 (fun i ->
              Fuzz.Gen.decl_count (Fuzz.Gen.generate ~seed:5 ~iter:i ~size:s)))
     in
     total 4 > total 1)

(* ------------------------------------------------------------------ *)
(* Oracle properties over random programs (QCheck style, fixed seeds so
   CI failures replay exactly). *)

let arbitrary_iter = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 10_000)

let oracle_property name ~count ~oracle =
  QCheck.Test.make ~name ~count arbitrary_iter (fun iter ->
      let source = Fuzz.Gen.render (Fuzz.Gen.generate ~seed:4242 ~iter ~size:2) in
      match Fuzz.Oracle.check oracle ~source with
      | Fuzz.Oracle.Pass -> true
      | Fuzz.Oracle.Fail m -> QCheck.Test.fail_reportf "iter %d: %s" iter m)

let qcheck_wellformed =
  oracle_property "generated programs load (wellformed oracle)" ~count:60
    ~oracle:Fuzz.Oracle.Wellformed

let qcheck_roundtrip =
  oracle_property "print -> re-parse -> re-solve is identity (roundtrip oracle)"
    ~count:40 ~oracle:Fuzz.Oracle.Roundtrip

let qcheck_cache =
  oracle_property "cache-on and cache-off runs agree (cache oracle)" ~count:25
    ~oracle:Fuzz.Oracle.Cache

let qcheck_journal =
  oracle_property "journal replay rebuilds the direct trees (journal oracle)"
    ~count:25 ~oracle:Fuzz.Oracle.Journal

let qcheck_determinism =
  oracle_property "two cold runs are bit-identical (determinism oracle)" ~count:25
    ~oracle:Fuzz.Oracle.Determinism

(* ------------------------------------------------------------------ *)
(* Corpus round-trip regression: every bundled program survives print ->
   re-parse -> re-solve with an identical proof tree on every attempt.
   This is the regression net for the fuzzer-found printer/parser bugs
   (shared-hole goal re-sugaring; fn-item back-parse vs impl bodies). *)

let check_corpus oracle =
  List.iter
    (fun (e : Corpus.Harness.entry) ->
      match Fuzz.Oracle.check oracle ~source:e.source with
      | Fuzz.Oracle.Pass -> ()
      | Fuzz.Oracle.Fail m -> Alcotest.failf "%s: %s" e.id m)
    Corpus.Suite.all

let test_corpus_roundtrip () =
  check_int "whole suite covered (§5.2.1)" 17 (List.length Corpus.Suite.entries);
  check_corpus Fuzz.Oracle.Roundtrip

(* The corpus under every oracle: cache on ≡ off (single and doubled),
   journals replay to the direct trees, print -> re-parse -> re-solve
   keeps every attempt's tree, two runs are byte-identical, serve
   matches one-shot runs. *)

let test_corpus_oracles () =
  check_int "every bundled program" 35 (List.length Corpus.Suite.all);
  List.iter check_corpus Fuzz.Oracle.all

(* ------------------------------------------------------------------ *)
(* Driver *)

let test_driver_clean_campaign () =
  let outcome =
    Fuzz.Driver.run ~oracles:[ Fuzz.Oracle.Wellformed; Fuzz.Oracle.Roundtrip ]
      ~iters:20 ~seed:7 ()
  in
  check_int "all iterations ran" 20 outcome.Fuzz.Driver.o_iters;
  check_int "two checks per iteration" 40 outcome.Fuzz.Driver.o_checks;
  check_bool "no counterexample" true (outcome.Fuzz.Driver.o_counterexample = None)

let test_driver_zero_iters () =
  let outcome = Fuzz.Driver.run ~oracles:Fuzz.Oracle.all ~iters:0 ~seed:7 () in
  check_int "no iterations" 0 outcome.Fuzz.Driver.o_iters;
  check_int "no checks" 0 outcome.Fuzz.Driver.o_checks

(* ------------------------------------------------------------------ *)
(* Shrinker.  A synthetic oracle whose failure only needs one trait
   declaration: the shrinker must strip everything else, and must keep
   the failure *kind* stable while doing so. *)

let test_shrink_converges () =
  let spec = Fuzz.Gen.generate ~seed:11 ~iter:2 ~size:3 in
  let check source =
    let re = "trait T0" in
    let contains =
      let rec go i =
        i + String.length re <= String.length source
        && (String.sub source i (String.length re) = re || go (i + 1))
      in
      go 0
    in
    if contains then Fuzz.Oracle.Fail "synthetic: trait T0 present"
    else Fuzz.Oracle.Pass
  in
  (match check (Fuzz.Gen.render spec) with
  | Fuzz.Oracle.Fail _ -> ()
  | Fuzz.Oracle.Pass -> Alcotest.fail "seed spec must fail the synthetic oracle");
  let r = Fuzz.Shrink.run ~check ~kind:"synthetic" spec in
  check_bool "shrinking made progress" true (r.Fuzz.Shrink.steps > 0);
  check_int "minimal repro is a single declaration" 1
    (Fuzz.Gen.decl_count r.Fuzz.Shrink.minimized);
  (match check (Fuzz.Gen.render r.Fuzz.Shrink.minimized) with
  | Fuzz.Oracle.Fail _ -> ()
  | Fuzz.Oracle.Pass -> Alcotest.fail "minimized spec no longer fails")

let test_shrink_respects_kind () =
  (* A reduction that drops the struct flips the failure kind; the
     shrinker must refuse it and keep both declarations. *)
  let spec = Fuzz.Gen.generate ~seed:11 ~iter:2 ~size:2 in
  let check source =
    match Trait_lang.Resolve.program_of_string ~file:"shrink" source with
    | _ -> Fuzz.Oracle.Fail "target: loads"
    | exception _ -> Fuzz.Oracle.Fail "front-end: broken"
  in
  let r = Fuzz.Shrink.run ~check ~kind:"target" spec in
  match check (Fuzz.Gen.render r.Fuzz.Shrink.minimized) with
  | Fuzz.Oracle.Fail m -> check_string "kind preserved" "target" (Fuzz.Oracle.fail_kind m)
  | Fuzz.Oracle.Pass -> Alcotest.fail "minimized spec no longer fails"

(* ------------------------------------------------------------------ *)
(* Lexer/parser edge cases (table-driven).  Each source must parse,
   resolve, and survive the round-trip oracle. *)

let deep_generic depth =
  let b = Buffer.create 256 in
  Buffer.add_string b "struct S<P0>;\ntrait T { }\ngoal ";
  for _ = 1 to depth do
    Buffer.add_string b "S<"
  done;
  Buffer.add_string b "i32";
  for _ = 1 to depth do
    Buffer.add_char b '>'
  done;
  Buffer.add_string b ": T;\n";
  Buffer.contents b

let long_supertrait_chain n =
  let b = Buffer.create 256 in
  Buffer.add_string b "struct S;\ntrait T0 { }\n";
  for i = 1 to n do
    Buffer.add_string b (Printf.sprintf "trait T%d: T%d { }\n" i (i - 1))
  done;
  Buffer.add_string b "impl T0 for S { }\n";
  Buffer.add_string b (Printf.sprintf "goal S: T%d;\n" n);
  Buffer.contents b

let edge_cases =
  [
    ("nested generics at depth 64", deep_generic 64);
    ("supertrait chain of length 40", long_supertrait_chain 40);
    ( "keyword-adjacent identifiers",
      "struct structural;\nstruct implement;\nstruct forbid;\nstruct dynamo;\n\
       struct modality;\nstruct whereabouts;\nstruct crateful;\nstruct newtyped;\n\
       struct Selfish;\ntrait traitor { }\nimpl traitor for structural { }\n\
       goal structural: traitor;\ngoal implement: traitor;\n" );
    ( "fn pointers, fn items, and unit",
      "struct S;\ntrait T { }\nimpl T for fn(S) -> S { }\nimpl T for fn() { }\n\
       fn free(S) -> S;\ngoal fn(S) -> S: T;\ngoal fn[free]: T;\ngoal (): T;\n" );
    ( "one-tuples and nested tuples",
      "struct S;\ntrait T { }\nimpl T for (S,) { }\ngoal (S,): T;\n\
       goal ((S, S), (S,)): T;\n" );
    ( "references and dyn objects",
      "struct S;\ntrait T { }\ntrait U { }\nimpl T for &S { }\n\
       impl T for dyn U { }\ngoal &S: T;\ngoal &mut S: T;\ngoal dyn U: T;\n" );
    ( "projections with binding sugar",
      "struct S;\ntrait A { type Out; }\nimpl A for S { type Out = S; }\n\
       goal S: A<Out = S>;\ngoal <S as A>::Out == S;\n" );
  ]

let test_parser_edge_cases () =
  List.iter
    (fun (label, source) ->
      (match Trait_lang.Resolve.program_of_string ~file:"edge" source with
      | _ -> ()
      | exception e ->
          Alcotest.failf "%s: front-end rejected: %s" label (Printexc.to_string e));
      match Fuzz.Oracle.check Fuzz.Oracle.Roundtrip ~source with
      | Fuzz.Oracle.Pass -> ()
      | Fuzz.Oracle.Fail m -> Alcotest.failf "%s: %s" label m)
    edge_cases

(* ------------------------------------------------------------------ *)
(* CLI negative paths, each run in a temporary directory
   ({!Cli_fixture}). *)

open Cli_fixture

let test_cli_check_unparseable () =
  write_file "fuzz_bad.trait" "struct A; trait T {";
  let code = Sys.command (cli ^ " check fuzz_bad.trait > fuzz_bad.out 2> fuzz_bad.err") in
  check_int "unparseable input exits 2" 2 code;
  let err = read_file "fuzz_bad.err" in
  check_bool "stderr carries a positioned diagnostic" true
    (contains ~needle:"fuzz_bad.trait:1:" err && contains ~needle:"parse error" err)

(* A multi-file check is one journal and one `== path ==`-headed report
   per file, in input order.  The middle file fails to load, so the run
   exits 2, but the files around it are still checked. *)
let test_cli_check_multi_file () =
  write_file "mf_a.trait"
    "struct Timer;\ntrait Resource { }\ntrait SystemParam { }\nstruct ResMut<T>;\n\
     impl<T> SystemParam for ResMut<T> where T: Resource { }\n\
     goal ResMut<Timer>: SystemParam;\ngoal Timer: SystemParam;\n";
  write_file "mf_bad.trait" "struct A; trait T {";
  write_file "mf_c.trait"
    "struct A;\nstruct W<T>;\ntrait T { }\nimpl T for A { }\n\
     impl<X> T for W<X> where X: T { }\ngoal W<W<A>>: T;\n";
  let check args name =
    Sys.command (Printf.sprintf "%s check %s > %s.out 2> %s.err" cli args name name)
  in
  let code = check "--events-out mf.jsonl mf_a.trait mf_bad.trait mf_c.trait" "mf" in
  check_int "a load error in any file exits 2" 2 code;
  let single name =
    ignore (check (Printf.sprintf "--events-out %s.jsonl %s.trait" name name) name);
    read_file (name ^ ".out")
  in
  let out_a = single "mf_a" and out_c = single "mf_c" in
  check_string "per-file output, headed, in input order"
    ("== mf_a.trait ==\n" ^ out_a ^ "== mf_bad.trait ==\n== mf_c.trait ==\n" ^ out_c)
    (read_file "mf.out");
  let journal name = Argus_json.Journal_codec.of_jsonl (read_file (name ^ ".jsonl")) in
  let entries = journal "mf" in
  Alcotest.(check (list int))
    "seq runs 0..n-1"
    (List.init (List.length entries) Fun.id)
    (List.map (fun (e : Journal.entry) -> e.seq) entries);
  let goal_ids =
    List.filter_map
      (fun (e : Journal.entry) ->
        match e.ev with Journal.Goal_enter { id; _ } -> Some id | _ -> None)
      entries
  in
  check_bool "goals recorded" true (goal_ids <> []);
  check_int "goal node ids unique across files"
    (List.length goal_ids)
    (List.length (List.sort_uniq compare goal_ids));
  check_int "argus explain accepts the journal" 0
    (Sys.command (cli ^ " explain mf.jsonl > mfx.out 2> mfx.err"));
  let roots entries =
    match Journal.replay entries with
    | Ok tree -> List.length tree.Journal.rt_roots
    | Error m -> Alcotest.fail ("journal does not replay: " ^ m)
  in
  check_int "replay roots = sum over the single-file journals"
    (roots (journal "mf_a") + roots (journal "mf_c"))
    (roots entries)

(* `bench serve` needs at least one client and one program: each flag
   below 1 is a usage error naming the flag, and the library refuses the
   same values. *)
let test_cli_bench_serve_nonpositive () =
  List.iter
    (fun (flag, args) ->
      let code =
        Sys.command (Printf.sprintf "%s bench serve %s > bs.out 2> bs.err" cli args)
      in
      check_int (args ^ " exits 2") 2 code;
      check_bool (args ^ ": stderr names the flag") true
        (contains ~needle:flag (read_file "bs.err")))
    [
      ("--programs", "--programs 0 --clients 4");
      ("--clients", "--clients 0");
      ("--clients", "--clients=-3");
    ];
  List.iter
    (fun (programs, clients) ->
      check_bool
        (Printf.sprintf "run ~programs:%d ~clients:%d raises" programs clients)
        true
        (match Fuzz.Serve_load.run ~programs ~clients ~seed:1 () with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ (0, 4); (8, 0) ]

(* `interactive` reads row numbers from the user: a non-numeric row is
   reported like a missing one, and the loop carries on to `q`. *)
let test_cli_interactive_bad_row () =
  write_file "it_timer.trait"
    "struct Timer;\ntrait Resource { }\ntrait SystemParam { }\nstruct ResMut<T>;\n\
     impl<T> SystemParam for ResMut<T> where T: Resource { }\n\
     goal ResMut<Timer>: SystemParam;\n";
  let code =
    Sys.command
      (Printf.sprintf "printf 'e x\\nq\\n' | %s interactive it_timer.trait > it.out 2> it.err"
         cli)
  in
  check_int "non-numeric row exits 0" 0 code;
  check_bool "answers no such row" true (contains ~needle:"no such row" (read_file "it.out"))

let test_cli_fuzz_zero_iters () =
  let code = Sys.command (cli ^ " fuzz --iters 0 > fz0.out 2> fz0.err") in
  check_int "--iters 0 is a clean no-op" 0 code;
  check_bool "summary still printed" true
    (contains ~needle:"0 counterexamples" (read_file "fz0.out"))

let test_cli_fuzz_unknown_oracle () =
  let code = Sys.command (cli ^ " fuzz --iters 1 --oracle bogus > fo.out 2> fo.err") in
  check_int "unknown oracle exits 2" 2 code;
  check_bool "error lists the known oracles" true
    (contains ~needle:"wellformed" (read_file "fo.err"))

let test_cli_fuzz_replay_missing () =
  let code = Sys.command (cli ^ " fuzz --replay no_such.trait > fr.out 2> fr.err") in
  check_int "missing replay file exits 2" 2 code

let test_cli_fuzz_smoke () =
  let code = Sys.command (cli ^ " fuzz --iters 10 --seed 7 > fs.out 2> fs.err") in
  check_int "small campaign exits 0" 0 code;
  let out = read_file "fs.out" in
  check_bool "reports iterations and checks" true
    (contains ~needle:"10 iterations" out && contains ~needle:"0 counterexamples" out)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fuzz"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "size knob" `Quick test_generator_sized;
        ] );
      ( "oracle properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_wellformed;
            qcheck_roundtrip;
            qcheck_cache;
            qcheck_journal;
            qcheck_determinism;
          ] );
      ( "corpus",
        [
          Alcotest.test_case "all programs round-trip" `Quick test_corpus_roundtrip;
          Alcotest.test_case "every oracle holds on every program" `Quick
            test_corpus_oracles;
        ] );
      ( "driver",
        [
          Alcotest.test_case "clean campaign" `Quick test_driver_clean_campaign;
          Alcotest.test_case "zero iterations" `Quick test_driver_zero_iters;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "converges to one declaration" `Quick test_shrink_converges;
          Alcotest.test_case "failure kind preserved" `Quick test_shrink_respects_kind;
        ] );
      ( "parser edges",
        [ Alcotest.test_case "table-driven edge cases" `Quick test_parser_edge_cases ] );
      ( "cli",
        [
          Alcotest.test_case "check: unparseable exits 2" `Quick
            (in_temp_dir test_cli_check_unparseable);
          Alcotest.test_case "bench serve: --programs/--clients below 1 exit 2" `Quick
            (in_temp_dir test_cli_bench_serve_nonpositive);
          Alcotest.test_case "fuzz: --iters 0 no-op" `Quick
            (in_temp_dir test_cli_fuzz_zero_iters);
          Alcotest.test_case "fuzz: unknown oracle" `Quick
            (in_temp_dir test_cli_fuzz_unknown_oracle);
          Alcotest.test_case "fuzz: missing replay file" `Quick
            (in_temp_dir test_cli_fuzz_replay_missing);
          Alcotest.test_case "fuzz: smoke campaign" `Quick
            (in_temp_dir test_cli_fuzz_smoke);
          Alcotest.test_case "check: multi-file output and journal" `Quick
            (in_temp_dir test_cli_check_multi_file);
          Alcotest.test_case "interactive: non-numeric row" `Quick
            (in_temp_dir test_cli_interactive_bad_row);
        ] );
    ]

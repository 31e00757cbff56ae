(** Tests for the expression-level type checker: literals, locals,
    constructors, generic calls with obligation emission, speculative
    method resolution (§4), annotation checking, and the end-of-body
    obligation fixpoint. *)

open Trait_lang

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int
let check_str = Alcotest.check Alcotest.string

let check_src src =
  let program = Resolve.program_of_string ~file:"t.rs" src in
  Typeck.Infer.check_program program

let main_of (r : Typeck.Infer.report) =
  List.find
    (fun (fr : Typeck.Infer.fn_report) -> Path.name fr.fr_fn.fn_path = "main")
    r.fr_fns

let local fr name =
  match List.assoc_opt name fr.Typeck.Infer.fr_locals with
  | Some t -> Pretty.ty ~cfg:Pretty.expanded t
  | None -> Alcotest.failf "no local %s" name

(* ------------------------------------------------------------------ *)

let test_literals_and_lets () =
  let r =
    check_src
      {|
        fn main() {
          let a = 1;
          let b = "hi";
          let c = true;
          let d = ();
          let e = (1, "x");
        }
      |}
  in
  let fr = main_of r in
  check_bool "ok" true (Typeck.Infer.fn_ok fr);
  check_str "int" "i32" (local fr "a");
  check_str "str" "String" (local fr "b");
  check_str "bool" "bool" (local fr "c");
  check_str "unit" "()" (local fr "d");
  check_str "tuple" "(i32, String)" (local fr "e")

let test_ctor_inference () =
  let r =
    check_src
      {|
        struct Timer;
        struct Wrapper<T>;
        fn main() {
          let t = Timer;
          let w = Wrapper(3);
          let u = Wrapper(t);
        }
      |}
  in
  let fr = main_of r in
  check_bool "ok" true (Typeck.Infer.fn_ok fr);
  check_str "unit struct" "Timer" (local fr "t");
  check_str "wrapper of int" "Wrapper<i32>" (local fr "w");
  check_str "wrapper of timer" "Wrapper<Timer>" (local fr "u")

let test_generic_call_infers_and_obligates () =
  let r =
    check_src
      {|
        extern crate std { trait Clone {} struct Vec<T>; impl Clone for i32 {} }
        fn dup<T>(x: T) -> Vec<T> where T: Clone { x; }
        fn main() {
          let v = dup(7);
        }
      |}
  in
  let fr = main_of r in
  check_bool "ok" true (Typeck.Infer.fn_ok fr);
  check_str "instantiated result" "Vec<i32>" (local fr "v");
  check_int "one obligation" 1 (List.length fr.fr_obligations);
  let ob = List.hd fr.fr_obligations in
  check_str "resolved obligation" "i32: Clone" (Pretty.predicate ob.final.pred);
  check_bool "origin points at the call" true
    (ob.goal.goal_origin = "the call to `dup`")

let test_failing_obligation () =
  let r =
    check_src
      {|
        extern crate std { trait Clone {} struct Vec<T>; impl Clone for i32 {} }
        struct Opaque;
        fn dup<T>(x: T) -> Vec<T> where T: Clone { x; }
        fn main() {
          let v = dup(Opaque);
        }
      |}
  in
  let fr = main_of r in
  check_bool "not ok" false (Typeck.Infer.fn_ok fr);
  check_bool "no type errors though" true (fr.fr_type_errors = []);
  match fr.fr_obligations with
  | [ ob ] ->
      check_bool "disproved" true (ob.status = Solver.Obligations.Disproved);
      check_str "the bound" "Opaque: Clone" (Pretty.predicate ob.final.pred)
  | _ -> Alcotest.fail "expected one obligation"

let test_argument_type_mismatch () =
  let r =
    check_src
      {|
        fn takes_int(x: i32) -> i32 { x; }
        fn main() {
          let y = takes_int("oops");
        }
      |}
  in
  let fr = main_of r in
  check_int "one type error" 1 (List.length fr.fr_type_errors);
  check_bool "mentions mismatch" true
    (let m = (List.hd fr.fr_type_errors).te_message in
     String.length m > 0);
  check_str "result type still usable" "i32" (local fr "y")

let test_annotation_checks () =
  let r =
    check_src
      {|
        fn main() {
          let a: i32 = 1;
          let b: String = 2;
        }
      |}
  in
  let fr = main_of r in
  check_int "one error" 1 (List.length fr.fr_type_errors);
  check_str "annotation wins for later uses" "String" (local fr "b")

let test_annotation_guides_inference () =
  (* the annotation must flow backwards into the generic call *)
  let r =
    check_src
      {|
        extern crate std { struct Vec<T>; }
        fn make<T>() -> Vec<T> { (); }
        fn main() {
          let v: Vec<i32> = make();
        }
      |}
  in
  let fr = main_of r in
  check_bool "ok" true (Typeck.Infer.fn_ok fr);
  check_str "guided" "Vec<i32>" (local fr "v")

let test_unknown_variable () =
  let r = check_src "fn main() { let x = nope; }" in
  let fr = main_of r in
  check_int "one error" 1 (List.length fr.fr_type_errors)

(* ------------------------------------------------------------------ *)
(* method resolution (§4) *)

let probing_src =
  {|
    extern crate std {
      trait ToString { fn to_string(self) -> String; }
      struct Vec<T>;
      impl ToString for i32 {}
    }
    trait CustomToString { fn to_string(self) -> String; }
    impl CustomToString for Vec<i32> {}
    fn make() -> Vec<i32> { (); }
    fn main() {
      let v = make();
      let s = v.to_string();
      let n = 3;
      let m = n.to_string();
    }
  |}

let test_method_probing () =
  let r = check_src probing_src in
  let fr = main_of r in
  check_bool "ok" true (Typeck.Infer.fn_ok fr);
  check_str "method result" "String" (local fr "s");
  check_int "two probes" 2 (List.length fr.fr_probes);
  let p1 = List.hd fr.fr_probes in
  (* trait decl order: ToString first, so Vec<i32> commits the second *)
  check_str "receiver" "Vec<i32>" (Pretty.ty ~cfg:Pretty.expanded p1.p_recv_ty);
  check_bool "custom chosen" true (p1.p_chosen = Some 1);
  check_int "both alternatives probed" 2 (List.length p1.p_nodes);
  check_bool "failed alternative is speculative" true
    (Solver.Trace.has_flag Journal.Speculative (List.hd p1.p_nodes));
  let p2 = List.nth fr.fr_probes 1 in
  check_bool "i32 commits ToString directly" true (p2.p_chosen = Some 0)

let test_method_not_found () =
  let r =
    check_src
      {|
        trait Pretty { fn render(self) -> String; }
        struct A; struct B;
        impl Pretty for A {}
        fn main() {
          let b = B;
          let s = b.render();
        }
      |}
  in
  let fr = main_of r in
  check_bool "not ok" false (Typeck.Infer.fn_ok fr);
  check_int "one failed probe" 1
    (List.length (List.filter (fun (p : Typeck.Infer.probe) -> p.p_chosen = None) fr.fr_probes));
  (* with no success, every probed tree is kept for debugging *)
  let p = List.hd fr.fr_probes in
  check_int "trees kept" 1 (List.length (Argus.Extract.of_probe p.p_nodes))

let test_method_no_such_name () =
  let r = check_src "struct A; fn main() { let a = A; a.frobnicate(); }" in
  let fr = main_of r in
  check_int "error" 1 (List.length fr.fr_type_errors)

let test_method_args_checked () =
  let r =
    check_src
      {|
        trait Scale { fn scale(self, usize) -> Self; }
        struct Pic;
        impl Scale for Pic {}
        fn main() {
          let p = Pic;
          let q = p.scale("wat");
        }
      |}
  in
  let fr = main_of r in
  check_int "arg mismatch" 1 (List.length fr.fr_type_errors);
  check_str "Self output" "Pic" (local fr "q")

let test_method_emits_trait_error_via_probe_failure () =
  (* a probe whose only candidate's bound fails: leaves tree evidence *)
  let r =
    check_src
      {|
        trait Render { fn render(self) -> String; }
        struct Styled<T>;
        struct Plain;
        trait Theme {}
        impl<T> Render for Styled<T> where T: Theme {}
        fn main() {
          let s = Styled(Plain);
          let out = s.render();
        }
      |}
  in
  let fr = main_of r in
  check_bool "not ok" false (Typeck.Infer.fn_ok fr);
  let p = List.hd fr.fr_probes in
  check_bool "probe failed" true (p.p_chosen = None);
  (* the probe tree contains the real root cause *)
  let tree = List.hd (Argus.Extract.of_probe p.p_nodes) in
  let leaves = Argus.Proof_tree.failed_leaves tree in
  check_bool "root cause in probe tree" true
    (List.exists
       (fun (n : Argus.Proof_tree.node) ->
         match n.kind with
         | Argus.Proof_tree.Goal g ->
             Pretty.predicate ~cfg:Pretty.expanded g.pred = "Plain: Theme"
         | _ -> false)
       leaves)

(* ------------------------------------------------------------------ *)
(* fixpoint behaviour *)

let test_obligation_fixpoint_across_body () =
  (* the marker-style deduction: the obligation from the first call is
     ambiguous until the annotation on the second statement binds it *)
  let r =
    check_src
      {|
        extern crate std { trait Default_ {} struct Vec<T>; impl Default_ for i32 {} }
        fn make<T>() -> T where T: Default_ { (); }
        fn main() {
          let x = make();
          let y: i32 = x;
        }
      |}
  in
  let fr = main_of r in
  check_bool "ok after fixpoint" true (Typeck.Infer.fn_ok fr);
  check_str "x resolved" "i32" (local fr "x");
  let ob = List.hd fr.fr_obligations in
  check_bool "took multiple attempts or resolved late" true
    (List.length ob.attempts >= 1);
  check_str "final obligation concrete" "i32: Default_" (Pretty.predicate ob.final.pred)

let test_param_env_in_bodies () =
  (* inside a generic fn, the fn's own where-clauses prove obligations *)
  let r =
    check_src
      {|
        trait Clone2 {}
        fn outer<T>(x: T) -> T where T: Clone2 {
          let y = dup(x);
        }
        fn dup<U>(x: U) -> U where U: Clone2 { x; }
      |}
  in
  let fr = List.hd r.fr_fns in
  check_bool "param env proves it" true (Typeck.Infer.fn_ok fr)

let test_bevy_method_call_end_to_end () =
  (* the fully end-to-end §2.3: the obligation is generated by
     [app.add_systems(Update, run_timer_bad)] — no goal annotations *)
  let program =
    Resolve.program_of_string ~file:"bevy.rs" Corpus.Bevy_lite.errant_param_method_call
  in
  let r = Typeck.Infer.check_program program in
  let fr = main_of r in
  check_bool "main fails" false (Typeck.Infer.fn_ok fr);
  let ok_obs, bad_obs =
    List.partition
      (fun (ob : Solver.Obligations.goal_report) -> ob.status = Solver.Obligations.Proved)
      fr.fr_obligations
  in
  check_int "good registration proves" 1 (List.length ok_obs);
  check_int "bad registration fails" 1 (List.length bad_obs);
  (* and the failing tree carries the paper's root cause *)
  let tree = Argus.Extract.of_report (List.hd bad_obs) in
  let rc_first =
    match Argus.Inertia.sorted_leaves tree with
    | first :: _ -> (
        match first.kind with
        | Argus.Proof_tree.Goal g -> Pretty.predicate g.pred
        | _ -> "?")
    | [] -> "?"
  in
  check_str "Timer: SystemParam ranked first" "Timer: SystemParam" rc_first

let test_fns_without_bodies_skipped () =
  let r = check_src "struct A; fn sig_only(A) -> A;" in
  check_int "nothing to check" 0 (List.length r.fr_fns)

(* ------------------------------------------------------------------ *)
(* property: random bodies never crash the checker, and every local
   resolves to a type *)

let random_body_gen =
  let open QCheck.Gen in
  let decls =
    {|
      extern crate std {
        trait Clone {} struct Vec<T>;
        trait Show { fn show(self) -> String; }
        impl Clone for i32 {} impl Clone for String {}
        impl<T> Clone for Vec<T> where T: Clone {}
        impl Show for i32 {}
      }
      struct A; struct B; struct Wrap<T>;
      impl Clone for A {}
      fn dup<T>(x: T) -> Vec<T> where T: Clone { x; }
      fn pick(x: i32, y: String) -> i32 { x; }
    |}
  in
  let var_pool = [ "a"; "b"; "c"; "d" ] in
  let rec expr depth =
    if depth = 0 then
      oneof
        [
          return "1";
          return "\"s\"";
          return "A";
          return "B";
          oneofl var_pool;
        ]
    else
      frequency
        [
          (3, expr 0);
          (2, map (fun e -> Printf.sprintf "dup(%s)" e) (expr (depth - 1)));
          (2, map (fun e -> Printf.sprintf "Wrap(%s)" e) (expr (depth - 1)));
          ( 1,
            map2 (fun e1 e2 -> Printf.sprintf "pick(%s, %s)" e1 e2) (expr (depth - 1))
              (expr (depth - 1)) );
          (1, map (fun e -> Printf.sprintf "(%s).show()" e) (expr (depth - 1)));
          (1, map2 (fun e1 e2 -> Printf.sprintf "(%s, %s)" e1 e2) (expr (depth - 1)) (expr (depth - 1)));
        ]
  in
  let* n_stmts = int_range 1 5 in
  let* stmts =
    list_repeat n_stmts
      (let* i = int_range 0 3 in
       let* e = expr 2 in
       return (Printf.sprintf "let %s = %s;" (List.nth var_pool i) e))
  in
  return (decls ^ "\nfn main() {\n" ^ String.concat "\n" stmts ^ "\n}\n")

let prop_typeck_total =
  QCheck.Test.make ~name:"checker is total on random bodies; locals resolve" ~count:200
    (QCheck.make ~print:(fun s -> s) random_body_gen)
    (fun src ->
      let r = check_src src in
      let fr = main_of r in
      (* every local has a type; no exceptions escaped; obligations all
         reached a definite or ambiguous status *)
      List.for_all (fun (_, t) -> Trait_lang.Pretty.ty t <> "") fr.fr_locals
      && List.length fr.fr_locals >= 1)

let prop_typeck_deterministic =
  QCheck.Test.make ~name:"checking is deterministic" ~count:100
    (QCheck.make ~print:(fun s -> s) random_body_gen)
    (fun src ->
      let show r =
        List.map
          (fun (fr : Typeck.Infer.fn_report) ->
            ( List.map (fun (n, t) -> (n, Pretty.ty ~cfg:Pretty.verbose t)) fr.fr_locals,
              List.length fr.fr_type_errors,
              List.map
                (fun (ob : Solver.Obligations.goal_report) -> ob.status)
                fr.fr_obligations ))
          r.Typeck.Infer.fr_fns
      in
      show (check_src src) = show (check_src src))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest [ prop_typeck_total; prop_typeck_deterministic ]

let () =
  Alcotest.run "typeck"
    [
      ( "expressions",
        [
          Alcotest.test_case "literals and lets" `Quick test_literals_and_lets;
          Alcotest.test_case "constructors" `Quick test_ctor_inference;
          Alcotest.test_case "generic calls" `Quick test_generic_call_infers_and_obligates;
          Alcotest.test_case "failing obligation" `Quick test_failing_obligation;
          Alcotest.test_case "argument mismatch" `Quick test_argument_type_mismatch;
          Alcotest.test_case "annotations check" `Quick test_annotation_checks;
          Alcotest.test_case "annotations guide" `Quick test_annotation_guides_inference;
          Alcotest.test_case "unknown variable" `Quick test_unknown_variable;
        ] );
      ( "methods (§4)",
        [
          Alcotest.test_case "speculative probing" `Quick test_method_probing;
          Alcotest.test_case "no candidate applies" `Quick test_method_not_found;
          Alcotest.test_case "no such method name" `Quick test_method_no_such_name;
          Alcotest.test_case "argument checking" `Quick test_method_args_checked;
          Alcotest.test_case "probe failure keeps trees" `Quick
            test_method_emits_trait_error_via_probe_failure;
        ] );
      ( "fixpoint",
        [
          Alcotest.test_case "late binding" `Quick test_obligation_fixpoint_across_body;
          Alcotest.test_case "bevy end-to-end (§2.3)" `Quick test_bevy_method_call_end_to_end;
          Alcotest.test_case "param env" `Quick test_param_env_in_bodies;
          Alcotest.test_case "bodiless skipped" `Quick test_fns_without_bodies_skipped;
        ] );
      ("properties", qcheck_tests);
    ]

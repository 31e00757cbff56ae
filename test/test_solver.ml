(** Tests for the trait solver: inference context, unification, candidate
    assembly, projection normalization, overflow, the obligation fixpoint,
    and coherence checking. *)

open Trait_lang

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int
let check_str = Alcotest.check Alcotest.string

let resolve src = Resolve.program_of_string ~file:"t.rs" src

let solve_one src =
  let program = resolve src in
  let report = Solver.Obligations.solve_program program in
  (program, report, (List.hd report.reports).final)

let result_of src =
  let _, _, node = solve_one src in
  node.result

let res = Alcotest.testable Solver.Res.pp Solver.Res.equal

(* ------------------------------------------------------------------ *)
(* Res algebra *)

let test_res_algebra () =
  let open Solver.Res in
  Alcotest.check res "and yes" Yes (and_ Yes Yes);
  Alcotest.check res "and no dominates" No (and_ Maybe No);
  Alcotest.check res "and maybe" Maybe (and_ Yes Maybe);
  Alcotest.check res "or yes dominates" Yes (or_ No Yes);
  Alcotest.check res "or maybe" Maybe (or_ No Maybe);
  Alcotest.check res "conj empty" Yes (conj []);
  Alcotest.check res "disj empty" No (disj [])

(* ------------------------------------------------------------------ *)
(* Infer_ctx *)

let test_infer_ctx_fresh_and_bind () =
  let icx = Solver.Infer_ctx.create () in
  let a = Solver.Infer_ctx.fresh icx and b = Solver.Infer_ctx.fresh icx in
  check_bool "distinct" true (a <> b);
  Solver.Infer_ctx.bind icx a Ty.Int;
  check_bool "probe" true (Solver.Infer_ctx.probe icx a = Some Ty.Int);
  check_bool "b unbound" true (Solver.Infer_ctx.probe icx b = None);
  check_bool "resolve" true (Ty.equal (Solver.Infer_ctx.resolve icx (Ty.Infer a)) Ty.Int)

let test_infer_ctx_links () =
  let icx = Solver.Infer_ctx.create () in
  let a = Solver.Infer_ctx.fresh icx and b = Solver.Infer_ctx.fresh icx in
  Solver.Infer_ctx.link icx a b;
  Solver.Infer_ctx.bind icx b Ty.Str;
  check_bool "a resolves through link" true
    (Ty.equal (Solver.Infer_ctx.resolve icx (Ty.Infer a)) Ty.Str)

let test_infer_ctx_snapshot_rollback () =
  let icx = Solver.Infer_ctx.create () in
  let a = Solver.Infer_ctx.fresh icx in
  let snap = Solver.Infer_ctx.snapshot icx in
  Solver.Infer_ctx.bind icx a Ty.Int;
  check_bool "bound inside" true (Solver.Infer_ctx.probe icx a <> None);
  Solver.Infer_ctx.rollback_to icx snap;
  check_bool "unbound after rollback" true (Solver.Infer_ctx.probe icx a = None)

let test_infer_ctx_nested_snapshots () =
  let icx = Solver.Infer_ctx.create () in
  let a = Solver.Infer_ctx.fresh icx and b = Solver.Infer_ctx.fresh icx in
  let s1 = Solver.Infer_ctx.snapshot icx in
  Solver.Infer_ctx.bind icx a Ty.Int;
  let s2 = Solver.Infer_ctx.snapshot icx in
  Solver.Infer_ctx.bind icx b Ty.Str;
  Solver.Infer_ctx.rollback_to icx s2;
  check_bool "inner rolled back" true (Solver.Infer_ctx.probe icx b = None);
  check_bool "outer kept" true (Solver.Infer_ctx.probe icx a = Some Ty.Int);
  Solver.Infer_ctx.rollback_to icx s1;
  check_bool "all rolled back" true (Solver.Infer_ctx.probe icx a = None)

let test_infer_ctx_commit () =
  let icx = Solver.Infer_ctx.create () in
  let a = Solver.Infer_ctx.fresh icx in
  let s = Solver.Infer_ctx.snapshot icx in
  Solver.Infer_ctx.bind icx a Ty.Int;
  Solver.Infer_ctx.commit icx s;
  check_bool "kept after commit" true (Solver.Infer_ctx.probe icx a = Some Ty.Int)

let test_infer_ctx_for_program () =
  let p = resolve "struct A; trait T<X, Y> {} goal A: T<_, _>;" in
  let icx = Solver.Infer_ctx.for_program p in
  check_bool "fresh above holes" true (Solver.Infer_ctx.fresh icx >= 2)

(* ------------------------------------------------------------------ *)
(* Unify *)

let icx_unify a b =
  let icx = Solver.Infer_ctx.create ~first_var:10 () in
  (icx, Solver.Unify.unify icx a b)

let a_ty = Ty.ctor (Path.local [ "A" ]) []
let b_ty = Ty.ctor (Path.local [ "B" ]) []

let test_unify_rigid () =
  check_bool "same ctor" true (snd (icx_unify a_ty a_ty) = Ok ());
  check_bool "diff ctor" true (Result.is_error (snd (icx_unify a_ty b_ty)));
  check_bool "params rigid equal" true
    (snd (icx_unify (Ty.param "T") (Ty.param "T")) = Ok ());
  check_bool "params rigid diff" true
    (Result.is_error (snd (icx_unify (Ty.param "T") (Ty.param "U"))))

let test_unify_infer_binds () =
  let icx, r = icx_unify (Ty.Infer 0) a_ty in
  check_bool "ok" true (r = Ok ());
  check_bool "bound" true (Ty.equal (Solver.Infer_ctx.resolve icx (Ty.Infer 0)) a_ty)

let test_unify_occurs_check () =
  let icx = Solver.Infer_ctx.create ~first_var:10 () in
  let r = Solver.Unify.unify icx (Ty.Infer 0) (Ty.tuple [ Ty.Infer 0; Ty.Int ]) in
  (match r with
  | Error (Journal.Occurs _) -> ()
  | _ -> Alcotest.fail "expected occurs failure");
  check_bool "still unbound" true (Solver.Infer_ctx.probe icx 0 = None)

let test_unify_structural () =
  check_bool "tuple ok" true
    (snd (icx_unify (Ty.tuple [ a_ty; Ty.Infer 0 ]) (Ty.tuple [ a_ty; b_ty ])) = Ok ());
  check_bool "tuple arity" true
    (Result.is_error (snd (icx_unify (Ty.tuple [ a_ty ]) (Ty.tuple [ a_ty; b_ty ]))));
  check_bool "fnptr" true
    (snd (icx_unify (Ty.fn_ptr [ a_ty ] (Ty.Infer 0)) (Ty.fn_ptr [ a_ty ] b_ty)) = Ok ());
  check_bool "refs unify regions loosely" true
    (snd (icx_unify (Ty.ref_ ~region:(Region.named "a") a_ty) (Ty.ref_ a_ty)) = Ok ());
  check_bool "named regions must match" true
    (Result.is_error
       (snd
          (icx_unify
             (Ty.ref_ ~region:(Region.named "a") a_ty)
             (Ty.ref_ ~region:(Region.named "b") a_ty))))

let test_unify_projection_vs_rigid () =
  let proj = Ty.proj (Ty.projection a_ty (Ty.trait_ref (Path.local [ "T" ])) "Out") in
  match snd (icx_unify proj b_ty) with
  | Error (Journal.Projection_ambiguous _) -> ()
  | _ -> Alcotest.fail "expected projection_ambiguous"

let test_unify_infer_infer_link () =
  let icx = Solver.Infer_ctx.create ~first_var:10 () in
  check_bool "link" true (Solver.Unify.unify icx (Ty.Infer 0) (Ty.Infer 1) = Ok ());
  check_bool "bind one resolves both" true
    (Solver.Unify.unify icx (Ty.Infer 0) a_ty = Ok ()
    && Ty.equal (Solver.Infer_ctx.resolve icx (Ty.Infer 1)) a_ty)

let test_can_unify_rolls_back () =
  let icx = Solver.Infer_ctx.create ~first_var:10 () in
  check_bool "can unify" true (Solver.Unify.can_unify icx (Ty.Infer 0) a_ty);
  check_bool "no binding left" true (Solver.Infer_ctx.probe icx 0 = None)

(* ------------------------------------------------------------------ *)
(* Solve: basic candidate logic *)

let test_solve_simple_yes_no () =
  Alcotest.check res "impl applies" Solver.Res.Yes
    (result_of "struct A; trait T {} impl T for A {} goal A: T;");
  Alcotest.check res "no impl" Solver.Res.No
    (result_of "struct A; struct B; trait T {} impl T for B {} goal A: T;")

let test_solve_where_clause_required () =
  let src base =
    "struct A; struct W<X>; trait T {} trait U {} impl<X> T for W<X> where X: U {} " ^ base
  in
  Alcotest.check res "missing dep" Solver.Res.No (result_of (src "goal W<A>: T;"));
  Alcotest.check res "dep provided" Solver.Res.Yes
    (result_of (src "impl U for A {} goal W<A>: T;"))

let test_solve_generic_head_match () =
  Alcotest.check res "generic impl" Solver.Res.Yes
    (result_of "struct A; struct B<X>; trait T {} impl<X> T for B<X> {} goal B<A>: T;")

let test_solve_candidate_records_failure () =
  (* same self head (`B<_>`), so the impl survives fast-reject and the
     failure happens — and is recorded — inside unification *)
  let _, _, node =
    solve_one "struct A; struct B<X>; trait T {} impl T for B<A> {} goal B<B<A>>: T;"
  in
  match node.candidates with
  | [ c ] ->
      check_bool "head failure recorded" true (c.failure <> None);
      Alcotest.check res "candidate no" Solver.Res.No c.cand_result
  | _ -> Alcotest.fail "expected one candidate"

let test_solve_multiple_candidates_listed () =
  let _, _, node =
    solve_one
      "struct A; struct C; struct B<X>; trait T {} impl T for B<A> {} impl T for B<C> {} \
       goal B<B<A>>: T;"
  in
  check_int "both impls probed" 2 (List.length node.candidates)

let test_solve_fast_reject_prunes_candidates () =
  (* impls whose self head cannot unify with the goal's are never
     probed: no candidate nodes, same [No] verdict *)
  let _, _, node =
    solve_one "struct A; struct B; struct C; trait T {} impl T for B {} impl T for C {} goal A: T;"
  in
  check_int "head-mismatched impls pruned" 0 (List.length node.candidates);
  Alcotest.check res "still No" Solver.Res.No node.result;
  (* a blanket impl instantiates to an inference variable: wildcard,
     always probed *)
  let _, _, node =
    solve_one
      "struct A; struct B; trait T {} trait U {} impl T for B {} impl<X> T for X where X: U {} \
       goal A: T;"
  in
  check_int "blanket impl survives the reject" 1 (List.length node.candidates)

(* ------------------------------------------------------------------ *)
(* Solve: inference commits and marker types *)

let test_solve_commits_unique_candidate () =
  let program = resolve "struct A; trait T<X> {} impl T<i32> for A {} goal A: T<_>;" in
  let report = Solver.Obligations.solve_program program in
  let r = List.hd report.reports in
  check_bool "proved" true (r.status = Solver.Obligations.Proved);
  let icx = report.solver.icx in
  check_bool "hole bound to i32" true
    (Ty.equal (Solver.Infer_ctx.resolve icx (Ty.Infer 0)) Ty.Int)

(* A committed candidate keeps the bindings its probe made and is not
   evaluated again, so a d-deep chain costs d + 1 goals with the cache
   off and under a journal (which also runs without the cache). *)
let test_solve_deep_chain_linear () =
  let d = 20 in
  let goal_ty = List.fold_left (fun t _ -> "W<" ^ t ^ ">") "A" (List.init d Fun.id) in
  let program =
    resolve
      (Printf.sprintf
         "trait Tr {} struct A; struct W<T>; impl Tr for A {} impl<T> Tr for W<T> where T: Tr {} \
          goal %s: Tr;"
         goal_ty)
  in
  let goals_of solve =
    Telemetry.reset ();
    Telemetry.enable ();
    let report = Fun.protect ~finally:Telemetry.disable solve in
    check_bool "chain proved" true (Solver.Obligations.all_proved report);
    Telemetry.counter_value "solver.goals"
  in
  check_int "cache off: d + 1 goals" (d + 1)
    (goals_of (fun () ->
         Solver.Eval_cache.set_enabled false;
         Fun.protect
           ~finally:(fun () -> Solver.Eval_cache.set_enabled true)
           (fun () -> Solver.Obligations.solve_program program)));
  check_int "journaled: d + 1 goals" (d + 1)
    (goals_of (fun () ->
         fst (Journal.with_memory_sink (fun () -> Solver.Obligations.solve_program program))))

let test_solve_marker_inference () =
  let src =
    {|
      struct IsFn; struct A;
      trait Marked<M> {}
      trait Fnish {}
      trait Sys {}
      impl Fnish for A {}
      impl<F> Marked<(IsFn, ())> for F where F: Fnish {}
      impl<S> Marked<()> for S where S: Sys {}
      goal A: Marked<_>;
    |}
  in
  let program = resolve src in
  let report = Solver.Obligations.solve_program program in
  check_bool "proved through branch" true (Solver.Obligations.all_proved report);
  let icx = report.solver.icx in
  check_str "marker deduced" "(IsFn, ())"
    (Pretty.ty (Solver.Infer_ctx.resolve icx (Ty.Infer 0)))

let test_solve_ambiguous_self_is_maybe () =
  Alcotest.check res "unknown self" Solver.Res.Maybe
    (result_of "struct A; trait T {} impl T for A {} goal _: T;")

let test_solve_ambiguous_two_impls () =
  let _, _, node =
    solve_one
      "struct A; struct B; trait T<X> {} impl T<A> for A {} impl T<B> for A {} goal A: T<_>;"
  in
  Alcotest.check res "ambiguous" Solver.Res.Maybe node.result;
  check_bool "flagged" true (List.mem Journal.Ambiguous_selection node.flags)

let test_solve_param_env_candidate () =
  let program = resolve "struct A; trait T {} goal A: T;" in
  let env =
    [ Predicate.trait_ (Ty.ctor (Path.local [ "A" ]) []) (Ty.trait_ref (Path.local [ "T" ])) ]
  in
  let report = Solver.Obligations.solve_program ~env program in
  check_bool "proved from env" true (Solver.Obligations.all_proved report)

let test_solve_supertrait_elaboration () =
  let program = resolve "struct A; trait Super {} trait Sub: Super {} goal A: Super;" in
  let env =
    [ Predicate.trait_ (Ty.ctor (Path.local [ "A" ]) []) (Ty.trait_ref (Path.local [ "Sub" ])) ]
  in
  let report = Solver.Obligations.solve_program ~env program in
  check_bool "proved via supertrait" true (Solver.Obligations.all_proved report)

(* ------------------------------------------------------------------ *)
(* Solve: builtins *)

let test_solve_builtin_fn () =
  Alcotest.check res "fn item implements Fn" Solver.Res.Yes
    (result_of
       "struct A; trait Fn<Args> { type Output; } fn f(A) -> i32; goal fn[f]: Fn<(A,)>;");
  Alcotest.check res "wrong arity tuple" Solver.Res.No
    (result_of
       "struct A; trait Fn<Args> { type Output; } fn f(A) -> i32; goal fn[f]: Fn<(A, A)>;")

let test_solve_builtin_fn_output () =
  Alcotest.check res "output projection" Solver.Res.Yes
    (result_of
       "struct A; trait Fn<Args> { type Output; } fn f(A) -> i32; goal <fn[f] as \
        Fn<(A,)>>::Output == i32;");
  Alcotest.check res "wrong output" Solver.Res.No
    (result_of
       "struct A; trait Fn<Args> { type Output; } fn f(A) -> i32; goal <fn[f] as \
        Fn<(A,)>>::Output == String;")

let test_solve_builtin_sized () =
  Alcotest.check res "struct sized" Solver.Res.Yes
    (result_of "struct A; trait Sized {} goal A: Sized;");
  Alcotest.check res "dyn unsized" Solver.Res.No
    (result_of "trait Sized {} trait Obj {} goal dyn Obj: Sized;")

(* ------------------------------------------------------------------ *)
(* Solve: projections *)

let proj_src =
  "struct A; struct B; struct C; trait T { type Out; } impl T for A { type Out = B; } "

let test_solve_projection_match_mismatch () =
  Alcotest.check res "matches" Solver.Res.Yes
    (result_of (proj_src ^ "goal <A as T>::Out == B;"));
  Alcotest.check res "mismatch is E0271" Solver.Res.No
    (result_of (proj_src ^ "goal <A as T>::Out == C;"))

let test_solve_projection_infers_term () =
  let program = resolve (proj_src ^ "goal <A as T>::Out == _;") in
  let report = Solver.Obligations.solve_program program in
  check_bool "proved" true (Solver.Obligations.all_proved report);
  check_str "term inferred" "B"
    (Pretty.ty (Solver.Infer_ctx.resolve report.solver.icx (Ty.Infer 0)))

let test_solve_projection_trait_default () =
  Alcotest.check res "default assoc used" Solver.Res.Yes
    (result_of
       "struct A; struct B; trait T { type Out = B; } impl T for A {} goal <A as T>::Out \
        == B;")

let test_solve_projection_in_where_clause () =
  let template ret inp =
    Printf.sprintf
      {|
      extern crate std {
        trait Iterator { type Item; }
        trait Fn<Args> { type Output; }
        struct Map<I, F>;
        impl<I, F, B> Iterator for Map<I, F>
          where I: Iterator, F: Fn<(<I as Iterator>::Item,), Output = B> {
          type Item = B;
        }
      }
      struct Counter;
      impl Iterator for Counter { type Item = i32; }
      fn g(%s) -> %s;
      goal Map<Counter, fn[g]>: Iterator;
    |}
      inp ret
  in
  Alcotest.check res "good map" Solver.Res.Yes (result_of (template "String" "i32"));
  Alcotest.check res "bad map input" Solver.Res.No (result_of (template "String" "String"))

let test_solve_stateful_normalizes_to () =
  let _, _, node =
    solve_one
      {|
      struct A; struct B;
      trait T { type Out; }
      trait U {}
      impl T for A { type Out = B; }
      impl U for B {}
      struct W<X>;
      trait V {}
      impl V for W<<A as T>::Out> {}
      goal W<<A as T>::Out>: V;
    |}
  in
  Alcotest.check res "normalizes and proves" Solver.Res.Yes node.result;
  let stateful = ref 0 in
  let rec count (g : Solver.Trace.goal_node) =
    if Solver.Trace.has_flag Journal.Stateful g then incr stateful;
    List.iter (fun (c : Solver.Trace.cand_node) -> List.iter count c.subgoals) g.candidates
  in
  count node;
  check_bool "has stateful node" true (!stateful > 0)

(* ------------------------------------------------------------------ *)
(* Solve: cycles and overflow *)

let test_solve_overflow_cycle () =
  let _, _, node = solve_one Corpus.Motivating.ast_overflow in
  Alcotest.check res "cycle is an error" Solver.Res.No node.result;
  let rec has_overflow (g : Solver.Trace.goal_node) =
    Solver.Trace.is_overflow g
    || List.exists
         (fun (c : Solver.Trace.cand_node) -> List.exists has_overflow c.subgoals)
         g.candidates
  in
  check_bool "overflow flagged" true (has_overflow node)

let test_solve_depth_limit () =
  let src =
    "struct A; struct W<X>; trait T {} impl<X> T for W<X> where W<W<X>>: T {} goal W<A>: T;"
  in
  let program = resolve src in
  let cfg = { Solver.Solve.depth_limit = 12 } in
  let report = Solver.Obligations.solve_program ~cfg program in
  let r = List.hd report.reports in
  check_bool "errors out" true (r.status = Solver.Obligations.Disproved);
  let rec max_depth (g : Solver.Trace.goal_node) =
    List.fold_left
      (fun acc (c : Solver.Trace.cand_node) ->
        List.fold_left (fun a s -> max a (max_depth s)) acc c.subgoals)
      g.depth g.candidates
  in
  check_bool "depth bounded" true (max_depth r.final <= 14)

let test_solve_outlives_and_wf () =
  Alcotest.check res "outlives concrete" Solver.Res.Yes
    (result_of "struct A; goal A: 'static;");
  Alcotest.check res "outlives infer" Solver.Res.Maybe (result_of "goal _: 'static;")

(* ------------------------------------------------------------------ *)
(* Obligation engine *)

let test_obligations_fixpoint_rounds () =
  (* Two goals share inference variable ?0: [?0: U] is ambiguous until
     [B<?0>: T<A>] commits ?0 := A, so the engine needs a second round —
     the §4 "snapshots of a predicate's evolution". *)
  let src =
    {|
      struct A; struct B<X>;
      trait T<X> {}
      trait U {}
      impl T<A> for B<A> {}
      impl U for A {}
      goal B<_>: T<A>;
    |}
  in
  let program = resolve src in
  let u_goal : Program.goal =
    {
      goal_pred = Predicate.trait_ (Ty.Infer 0) (Ty.trait_ref (Path.local [ "U" ]));
      goal_span = Span.dummy;
      goal_origin = "the ambiguous use";
    }
  in
  (* put the ambiguous goal first so round 1 leaves it maybe *)
  let program = Program.add_goal u_goal program in
  let program = Program.with_goals (List.rev (Program.goals program)) program in
  let report = Solver.Obligations.solve_program program in
  check_bool "all proved" true (Solver.Obligations.all_proved report);
  check_bool "took >1 round" true (report.rounds > 1);
  let g1 = List.hd report.reports in
  check_bool "multiple attempts" true (List.length g1.attempts >= 2)

let test_obligations_ambiguous_survivors_fail () =
  let program = resolve "struct A; trait T {} impl T for A {} goal _: T;" in
  let report = Solver.Obligations.solve_program program in
  let r = List.hd report.reports in
  check_bool "ambiguous" true (r.status = Solver.Obligations.Ambiguous);
  check_bool "counts as error" true (not (Solver.Obligations.all_proved report))

(* ------------------------------------------------------------------ *)
(* Speculative probing (§4) *)

let probe_src =
  {|
    struct Vecish;
    trait ToString {}
    trait CustomToString {}
    impl CustomToString for Vecish {}
  |}

let test_probe_commits_first_success () =
  let program = resolve probe_src in
  let st = Solver.Solve.create program in
  let mk name =
    Predicate.trait_ (Ty.ctor (Path.local [ "Vecish" ]) []) (Ty.trait_ref (Path.local [ name ]))
  in
  let nodes, chosen = Solver.Solve.solve_probe st [ mk "ToString"; mk "CustomToString" ] in
  check_bool "second alternative chosen" true (chosen = Some 1);
  check_int "both evaluated" 2 (List.length nodes);
  let first = List.hd nodes in
  Alcotest.check res "first failed" Solver.Res.No first.result;
  check_bool "first flagged speculative" true
    (List.mem Journal.Speculative first.flags);
  let second = List.nth nodes 1 in
  Alcotest.check res "second succeeded" Solver.Res.Yes second.result;
  check_bool "second not speculative" false
    (List.mem Journal.Speculative second.flags)

let test_probe_all_fail () =
  let program = resolve "struct A; trait T {} trait U {}" in
  let st = Solver.Solve.create program in
  let mk name =
    Predicate.trait_ (Ty.ctor (Path.local [ "A" ]) []) (Ty.trait_ref (Path.local [ name ]))
  in
  let nodes, chosen = Solver.Solve.solve_probe st [ mk "T"; mk "U" ] in
  check_bool "no choice" true (chosen = None);
  check_bool "all speculative failures" true
    (List.for_all
       (fun (n : Solver.Trace.goal_node) -> List.mem Journal.Speculative n.flags)
       nodes)

let test_probe_rollback_between_alternatives () =
  (* a failing first alternative must not leave bindings behind *)
  let program = resolve "struct A; struct B; trait T<X> {} impl T<B> for A {}" in
  let st = Solver.Solve.create program in
  let hole = Solver.Infer_ctx.fresh st.icx in
  let a = Ty.ctor (Path.local [ "A" ]) [] in
  (* first asks for T<A> (fails, but unification touched the hole),
     second asks for T<?hole> (succeeds, binds hole := B) *)
  let p1 =
    Predicate.trait_ a (Ty.trait_ref ~args:[ a ] (Path.local [ "T" ]))
  in
  let p2 =
    Predicate.trait_ a (Ty.trait_ref ~args:[ Ty.Infer hole ] (Path.local [ "T" ]))
  in
  let _, chosen = Solver.Solve.solve_probe st [ p1; p2 ] in
  check_bool "second chosen" true (chosen = Some 1);
  check_str "hole bound by committed alternative" "B"
    (Pretty.ty (Solver.Infer_ctx.resolve st.icx (Ty.Infer hole)))

(* ------------------------------------------------------------------ *)
(* Impl well-formedness: associated-type bounds *)

let test_impl_wf_ok_and_failing () =
  let good =
    resolve
      {|
        struct Node;
        trait Meta<A> {}
        trait HasMeta { type M; }
        struct NodeMeta;
        impl Meta<Node> for NodeMeta {}
        impl HasMeta for Node { type M = NodeMeta; }
      |}
  in
  (* add the bound: type M: Meta<Self> *)
  let good_src =
    {|
      struct Node;
      trait Meta<A> {}
      trait HasMeta { type M: Meta<Self>; }
      struct NodeMeta;
      impl Meta<Node> for NodeMeta {}
      impl HasMeta for Node { type M = NodeMeta; }
    |}
  in
  ignore good;
  let program = resolve good_src in
  check_int "well-formed impl passes" 0
    (List.length (Solver.Coherence.check_impl_wf program));
  let bad_src =
    {|
      struct Node;
      trait Meta<A> {}
      trait HasMeta { type M: Meta<Self>; }
      struct Rogue;
      impl HasMeta for Node { type M = Rogue; }
    |}
  in
  let program = resolve bad_src in
  match Solver.Coherence.check_impl_wf program with
  | [ f ] ->
      check_str "failing assoc" "M" f.wf_assoc;
      Alcotest.check res "bound fails" Solver.Res.No f.wf_tree.result
  | l -> Alcotest.failf "expected one wf failure, got %d" (List.length l)

let test_impl_wf_uses_impl_where_clauses () =
  (* the §2.2 blanket impl is well-formed *because* its own where-clause
     provides the bound *)
  let src =
    {|
      trait AssocData<A> {}
      trait AstAssocs { type Data: AssocData<Self>; }
      impl<Data> AstAssocs for Data where Data: AssocData<Data> {
        type Data = Data;
      }
    |}
  in
  let program = resolve src in
  check_int "blanket impl is wf" 0 (List.length (Solver.Coherence.check_impl_wf program))

(* ------------------------------------------------------------------ *)
(* Coherence *)

let test_coherence_overlap () =
  let program =
    resolve "struct A; struct B<X>; trait T {} impl<X> T for B<X> {} impl T for B<A> {}"
  in
  check_int "one overlap" 1 (List.length (Solver.Coherence.check program))

let test_coherence_marker_separation () =
  let program =
    resolve
      "struct IsFn; trait T<M> {} struct A; impl<F> T<(IsFn, ())> for F {} impl<S> T<()> \
       for S {}"
  in
  check_int "no overlap" 0 (List.length (Solver.Coherence.check program))

let test_coherence_disjoint_heads () =
  let program = resolve "struct A; struct B; trait T {} impl T for A {} impl T for B {}" in
  check_int "no overlap" 0 (List.length (Solver.Coherence.check program))

let test_orphan_rule () =
  let program =
    resolve
      {|
      extern crate serde { trait Serialize {} }
      extern crate chrono { struct DateTime; }
      struct Local;
      impl Serialize for Local {}
      impl Serialize for DateTime {}
    |}
  in
  let orphans = Solver.Coherence.orphan_violations program in
  check_int "one orphan" 1 (List.length orphans);
  match orphans with
  | [ o ] -> check_str "the DateTime impl" "DateTime" (Pretty.ty o.o_self)
  | _ -> Alcotest.fail "orphan shape"

let test_orphan_external_impl_in_its_crate_ok () =
  let program =
    resolve
      {|
      extern crate serde {
        trait Serialize {}
        struct Value;
        impl Serialize for Value {}
      }
    |}
  in
  check_int "no orphans" 0 (List.length (Solver.Coherence.orphan_violations program))

(* ------------------------------------------------------------------ *)
(* qcheck: solver invariants over random ground programs *)

let random_program_gen =
  let open QCheck.Gen in
  let* n_structs = int_range 1 4 in
  let* n_traits = int_range 1 3 in
  let* n_impls = int_range 0 6 in
  let struct_name i = Printf.sprintf "S%d" i in
  let trait_name i = Printf.sprintf "T%d" i in
  let* raw_impls =
    list_repeat n_impls
      (let* t = int_range 0 (n_traits - 1) in
       let* s = int_range 0 (n_structs - 1) in
       let* has_where = bool in
       let* wt = int_range 0 (n_traits - 1) in
       let* ws = int_range 0 (n_structs - 1) in
       return ((t, s), (has_where, wt, ws)))
  in
  (* keep at most one impl per (trait, struct) pair so the program is
     coherent (overlapping impls legitimately make selection ambiguous) *)
  let impls =
    List.sort_uniq compare (List.map fst raw_impls)
    |> List.map (fun key ->
           let has_where, wt, ws = List.assoc key raw_impls in
           let t, s = key in
           if has_where then
             Printf.sprintf "impl %s for %s where %s: %s {}" (trait_name t)
               (struct_name s) (struct_name ws) (trait_name wt)
           else Printf.sprintf "impl %s for %s {}" (trait_name t) (struct_name s))
  in
  let* gt = int_range 0 (n_traits - 1) in
  let* gs = int_range 0 (n_structs - 1) in
  let buf = Buffer.create 256 in
  for i = 0 to n_structs - 1 do
    Buffer.add_string buf (Printf.sprintf "struct %s; " (struct_name i))
  done;
  for i = 0 to n_traits - 1 do
    Buffer.add_string buf (Printf.sprintf "trait %s {} " (trait_name i))
  done;
  List.iter (fun s -> Buffer.add_string buf (s ^ " ")) impls;
  Buffer.add_string buf (Printf.sprintf "goal %s: %s;" (struct_name gs) (trait_name gt));
  return (Buffer.contents buf)

let arbitrary_program = QCheck.make ~print:(fun s -> s) random_program_gen

(* ground-truth satisfiability by naive datalog-style fixpoint *)
let naive_holds src =
  let program = resolve src in
  let impls = Program.impls program in
  let goal = (List.hd (Program.goals program)).goal_pred in
  let holds : (string * string, bool) Hashtbl.t = Hashtbl.create 16 in
  let key self tr = (Pretty.ty ~cfg:Pretty.verbose self, Path.to_string tr) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (i : Decl.impl) ->
        let prereqs_ok =
          List.for_all
            (fun wc ->
              match wc with
              | Predicate.Trait { self_ty; trait_ref } ->
                  Hashtbl.mem holds (key self_ty trait_ref.trait)
              | _ -> true)
            i.impl_generics.where_clauses
        in
        if prereqs_ok then begin
          let k = key i.impl_self i.impl_trait.trait in
          if not (Hashtbl.mem holds k) then begin
            Hashtbl.add holds k true;
            changed := true
          end
        end)
      impls
  done;
  match goal with
  | Predicate.Trait { self_ty; trait_ref } -> Hashtbl.mem holds (key self_ty trait_ref.trait)
  | _ -> false

let prop_solver_matches_naive_fixpoint =
  QCheck.Test.make ~name:"solver agrees with naive datalog on ground programs" ~count:300
    arbitrary_program (fun src ->
      let _, _, node = solve_one src in
      let expected = naive_holds src in
      match node.result with
      | Solver.Res.Yes -> expected
      | Solver.Res.No -> not expected
      | Solver.Res.Maybe -> false)

let prop_tree_results_consistent =
  QCheck.Test.make ~name:"goal = OR of candidates; candidate = AND of subgoals" ~count:300
    arbitrary_program (fun src ->
      let _, _, node = solve_one src in
      let rec ok (g : Solver.Trace.goal_node) =
        let cands_ok =
          List.for_all
            (fun (c : Solver.Trace.cand_node) ->
              List.for_all ok c.subgoals
              &&
              match c.failure with
              | Some _ -> Solver.Res.is_no c.cand_result
              | None ->
                  Solver.Res.equal c.cand_result
                    (Solver.Res.conj
                       (List.map (fun (s : Solver.Trace.goal_node) -> s.result) c.subgoals)))
            g.candidates
        in
        cands_ok
        &&
        match g.result with
        | Solver.Res.Yes ->
            g.candidates = []
            || List.exists
                 (fun (c : Solver.Trace.cand_node) -> Solver.Res.is_yes c.cand_result)
                 g.candidates
        | _ -> true
      in
      ok node)

let prop_overflow_never_loops =
  (* cyclic where-clauses must terminate via the cycle/overflow machinery *)
  let cyclic_gen =
    let open QCheck.Gen in
    let* n = int_range 1 3 in
    let names = List.init n (fun i -> Printf.sprintf "T%d" i) in
    let buf = Buffer.create 128 in
    Buffer.add_string buf "struct A; ";
    List.iter (fun t -> Buffer.add_string buf (Printf.sprintf "trait %s {} " t)) names;
    List.iteri
      (fun i t ->
        let next = List.nth names ((i + 1) mod n) in
        Buffer.add_string buf
          (Printf.sprintf "impl<X> %s for X where X: %s {} " t next))
      names;
    Buffer.add_string buf "goal A: T0;";
    return (Buffer.contents buf)
  in
  QCheck.Test.make ~name:"cyclic blanket impls terminate with overflow" ~count:20
    (QCheck.make ~print:(fun s -> s) cyclic_gen)
    (fun src ->
      let _, _, node = solve_one src in
      Solver.Res.is_no node.result)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_solver_matches_naive_fixpoint; prop_tree_results_consistent; prop_overflow_never_loops ]

let () =
  Alcotest.run "solver"
    [
      ("res", [ Alcotest.test_case "algebra" `Quick test_res_algebra ]);
      ( "infer_ctx",
        [
          Alcotest.test_case "fresh/bind" `Quick test_infer_ctx_fresh_and_bind;
          Alcotest.test_case "links" `Quick test_infer_ctx_links;
          Alcotest.test_case "snapshot/rollback" `Quick test_infer_ctx_snapshot_rollback;
          Alcotest.test_case "nested snapshots" `Quick test_infer_ctx_nested_snapshots;
          Alcotest.test_case "commit" `Quick test_infer_ctx_commit;
          Alcotest.test_case "for_program" `Quick test_infer_ctx_for_program;
        ] );
      ( "unify",
        [
          Alcotest.test_case "rigid" `Quick test_unify_rigid;
          Alcotest.test_case "infer binds" `Quick test_unify_infer_binds;
          Alcotest.test_case "occurs check" `Quick test_unify_occurs_check;
          Alcotest.test_case "structural" `Quick test_unify_structural;
          Alcotest.test_case "projection vs rigid" `Quick test_unify_projection_vs_rigid;
          Alcotest.test_case "infer-infer link" `Quick test_unify_infer_infer_link;
          Alcotest.test_case "can_unify rollback" `Quick test_can_unify_rolls_back;
        ] );
      ( "solve",
        [
          Alcotest.test_case "yes/no" `Quick test_solve_simple_yes_no;
          Alcotest.test_case "where clauses" `Quick test_solve_where_clause_required;
          Alcotest.test_case "generic heads" `Quick test_solve_generic_head_match;
          Alcotest.test_case "failure recorded" `Quick test_solve_candidate_records_failure;
          Alcotest.test_case "candidates listed" `Quick test_solve_multiple_candidates_listed;
          Alcotest.test_case "fast-reject prunes" `Quick test_solve_fast_reject_prunes_candidates;
          Alcotest.test_case "commit unique" `Quick test_solve_commits_unique_candidate;
          Alcotest.test_case "marker inference" `Quick test_solve_marker_inference;
          Alcotest.test_case "deep chain is linear" `Quick test_solve_deep_chain_linear;
          Alcotest.test_case "self hole ambiguous" `Quick test_solve_ambiguous_self_is_maybe;
          Alcotest.test_case "two yes ambiguous" `Quick test_solve_ambiguous_two_impls;
          Alcotest.test_case "param env" `Quick test_solve_param_env_candidate;
          Alcotest.test_case "supertrait elaboration" `Quick test_solve_supertrait_elaboration;
          Alcotest.test_case "builtin Fn" `Quick test_solve_builtin_fn;
          Alcotest.test_case "builtin Fn::Output" `Quick test_solve_builtin_fn_output;
          Alcotest.test_case "builtin Sized" `Quick test_solve_builtin_sized;
        ] );
      ( "projection",
        [
          Alcotest.test_case "match/mismatch" `Quick test_solve_projection_match_mismatch;
          Alcotest.test_case "infers term" `Quick test_solve_projection_infers_term;
          Alcotest.test_case "trait default" `Quick test_solve_projection_trait_default;
          Alcotest.test_case "in where clause" `Quick test_solve_projection_in_where_clause;
          Alcotest.test_case "stateful nodes" `Quick test_solve_stateful_normalizes_to;
        ] );
      ( "overflow",
        [
          Alcotest.test_case "cycle" `Quick test_solve_overflow_cycle;
          Alcotest.test_case "depth limit" `Quick test_solve_depth_limit;
          Alcotest.test_case "outlives/wf" `Quick test_solve_outlives_and_wf;
        ] );
      ( "obligations",
        [
          Alcotest.test_case "fixpoint rounds" `Quick test_obligations_fixpoint_rounds;
          Alcotest.test_case "ambiguous fails" `Quick test_obligations_ambiguous_survivors_fail;
        ] );
      ( "probe",
        [
          Alcotest.test_case "commits first success" `Quick test_probe_commits_first_success;
          Alcotest.test_case "all fail" `Quick test_probe_all_fail;
          Alcotest.test_case "rollback between" `Quick test_probe_rollback_between_alternatives;
        ] );
      ( "impl_wf",
        [
          Alcotest.test_case "ok and failing" `Quick test_impl_wf_ok_and_failing;
          Alcotest.test_case "uses impl where-clauses" `Quick
            test_impl_wf_uses_impl_where_clauses;
        ] );
      ( "coherence",
        [
          Alcotest.test_case "overlap" `Quick test_coherence_overlap;
          Alcotest.test_case "marker separation" `Quick test_coherence_marker_separation;
          Alcotest.test_case "disjoint heads" `Quick test_coherence_disjoint_heads;
          Alcotest.test_case "orphan rule" `Quick test_orphan_rule;
          Alcotest.test_case "external in own crate" `Quick
            test_orphan_external_impl_in_its_crate_ok;
        ] );
      ("properties", qcheck_tests);
    ]

(** Tests for the Argus core: extraction (implication heuristic, pruning),
    the proof-tree arena, failure formulas, DNF/MCS, the inertia heuristic
    (Appendix A.1 weights verbatim), baseline rankers, the view state
    machine, the renderer, and CtxtLinks. *)

open Trait_lang

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int
let check_str = Alcotest.check Alcotest.string

let resolve src = Resolve.program_of_string ~file:"t.rs" src

let failed_tree src =
  let program = resolve src in
  let report = Solver.Obligations.solve_program program in
  let r = List.hd (Solver.Obligations.errors report) in
  (program, r, Argus.Extract.of_report r)

let bevy_tree () = Corpus.Harness.failed_tree (Option.get (Corpus.Suite.find "bevy-errant-param"))

(* ------------------------------------------------------------------ *)
(* Extract: the implication heuristic *)

let tr name = Ty.trait_ref (Path.local [ name ])
let ctor name = Ty.ctor (Path.local [ name ]) []

let test_generalizes () =
  let gen = Predicate.trait_ (Ty.Infer 0) (tr "T") in
  let spec = Predicate.trait_ (ctor "A") (tr "T") in
  check_bool "hole generalizes concrete" true
    (Argus.Extract.generalizes ~general:gen ~specific:spec);
  check_bool "concrete does not generalize hole" false
    (Argus.Extract.generalizes ~general:spec ~specific:gen);
  check_bool "reflexive" true (Argus.Extract.generalizes ~general:spec ~specific:spec)

let test_generalizes_consistent_bindings () =
  (* ?0 used twice must map to the same type *)
  let gen =
    Predicate.trait_ (Ty.tuple [ Ty.Infer 0; Ty.Infer 0 ]) (tr "T")
  in
  let same = Predicate.trait_ (Ty.tuple [ ctor "A"; ctor "A" ]) (tr "T") in
  let diff = Predicate.trait_ (Ty.tuple [ ctor "A"; ctor "B" ]) (tr "T") in
  check_bool "consistent ok" true (Argus.Extract.generalizes ~general:gen ~specific:same);
  check_bool "inconsistent rejected" false
    (Argus.Extract.generalizes ~general:gen ~specific:diff)

let test_dedup_attempts () =
  let mk pred : Solver.Trace.goal_node =
    {
      gid = 0;
      pred;
      result = Solver.Res.Maybe;
      candidates = [];
      depth = 0;
      provenance = Journal.Root { origin = "x"; span = Span.dummy };
      flags = [];
    }
  in
  let early = mk (Predicate.trait_ (Ty.Infer 0) (tr "T")) in
  let late = mk (Predicate.trait_ (ctor "A") (tr "T")) in
  let survivors = Argus.Extract.dedup_attempts [ early; late ] in
  check_int "early snapshot dropped" 1 (List.length survivors);
  check_bool "kept the specific one" true
    (Predicate.equal (List.hd survivors).pred late.pred);
  (* unrelated predicates both survive *)
  let other = mk (Predicate.trait_ (ctor "B") (tr "U")) in
  check_int "unrelated kept" 2 (List.length (Argus.Extract.dedup_attempts [ other; late ]))

(* ------------------------------------------------------------------ *)
(* Proof tree structure *)

(* The impl's self head (`B<_>`) matches the goal's, so it survives
   fast-reject and fails inside unification — a head-mismatched impl
   (e.g. `impl T for B` against `goal A: T`) would no longer be probed
   at all. *)
let simple_fail = "struct A; struct B<X>; trait T {} impl T for B<A> {} goal B<B<A>>: T;"

let test_tree_roundtrip_structure () =
  let _, _, tree = failed_tree simple_fail in
  let root = Argus.Proof_tree.root tree in
  check_bool "root is goal" true (Argus.Proof_tree.is_goal root);
  check_bool "root failed" true (Argus.Proof_tree.is_failed root);
  check_int "one candidate" 1 (List.length (Argus.Proof_tree.children tree root));
  let cand = List.hd (Argus.Proof_tree.children tree root) in
  check_bool "cand parent is root" true
    (match Argus.Proof_tree.parent tree cand with
    | Some p -> p.id = root.id
    | None -> false)

let test_tree_failed_leaves () =
  let _, _, tree = failed_tree simple_fail in
  let leaves = Argus.Proof_tree.failed_leaves tree in
  check_int "one leaf" 1 (List.length leaves);
  check_bool "leaf is the root here" true ((List.hd leaves).id = (Argus.Proof_tree.root tree).id)

let chain_fail =
  {|
    struct A; struct W<X>; struct V<X>;
    trait T {} trait U {} trait S {}
    impl<X> T for W<X> where X: U {}
    impl<X> U for V<X> where X: S {}
    goal W<V<A>>: T;
  |}

let test_tree_ancestors_and_distance () =
  let _, _, tree = failed_tree chain_fail in
  let leaves = Argus.Proof_tree.failed_leaves tree in
  check_int "single leaf" 1 (List.length leaves);
  let leaf = List.hd leaves in
  let ancestors = Argus.Proof_tree.ancestors tree leaf in
  check_int "two goal ancestors" 2 (List.length ancestors);
  let root = Argus.Proof_tree.root tree in
  check_int "distance leaf->root" 2 (Argus.Proof_tree.goal_distance tree leaf root);
  check_int "distance self" 0 (Argus.Proof_tree.goal_distance tree leaf leaf)

let test_tree_goal_count () =
  let _, _, tree = failed_tree chain_fail in
  check_int "three goals" 3 (Argus.Proof_tree.goal_count tree)

(* ------------------------------------------------------------------ *)
(* Formula + DNF *)

let test_formula_of_linear_chain () =
  let _, _, tree = failed_tree chain_fail in
  let f, it = Argus.Formula.of_tree tree in
  check_int "single variable" 1 (Argus.Formula.num_vars it);
  check_bool "formula is satisfiable by fixing it" true
    (Argus.Formula.eval (fun _ -> true) f)

let test_formula_eval () =
  let open Argus.Formula in
  let f = Or [ And [ Var 0; Var 1 ]; Var 2 ] in
  check_bool "both" true (eval (fun i -> i <> 2) f);
  check_bool "just 2" true (eval (fun i -> i = 2) f);
  check_bool "just 0" false (eval (fun i -> i = 0) f)

let test_dnf_basic () =
  let open Argus.Formula in
  let f = And [ Or [ Var 0; Var 1 ]; Var 2 ] in
  let d = Argus.Dnf.of_formula f in
  check_int "two conjuncts" 2 (Argus.Dnf.num_conjuncts d);
  check_bool "contains {0,2}" true (List.mem [ 0; 2 ] d);
  check_bool "contains {1,2}" true (List.mem [ 1; 2 ] d)

let test_dnf_absorption () =
  let open Argus.Formula in
  (* x | (x & y) = x *)
  let f = Or [ Var 0; And [ Var 0; Var 1 ] ] in
  let d = Argus.Dnf.of_formula f in
  check_int "absorbed" 1 (Argus.Dnf.num_conjuncts d);
  check_bool "kept x" true (List.mem [ 0 ] d)

let test_dnf_true_false () =
  check_int "true" 1 (Argus.Dnf.num_conjuncts (Argus.Dnf.of_formula Argus.Formula.True));
  check_int "false" 0 (Argus.Dnf.num_conjuncts (Argus.Dnf.of_formula Argus.Formula.False))

let check_dnf msg expected f =
  Alcotest.(check (list (list int))) msg expected (Argus.Dnf.of_formula f)

let test_dnf_edge_shapes () =
  let open Argus.Formula in
  check_dnf "x | x" [ [ 0 ] ] (Or [ Var 0; Var 0 ]);
  check_dnf "(x & y) | x" [ [ 0 ] ] (Or [ And [ Var 0; Var 1 ]; Var 0 ]);
  check_dnf "(y & x) | (x & y)" [ [ 0; 1 ] ] (Or [ And [ Var 1; Var 0 ]; And [ Var 0; Var 1 ] ]);
  check_dnf "x & true" [ [ 0 ] ] (And [ Var 0; True ]);
  check_dnf "true & x" [ [ 0 ] ] (And [ True; Var 0 ]);
  check_dnf "x & false" [] (And [ Var 0; False ]);
  check_dnf "false & x" [] (And [ False; Var 0 ]);
  check_dnf "empty and" [ [] ] (And []);
  check_dnf "empty or" [] (Or []);
  check_dnf "x | true" [ [] ] (Or [ Var 0; True ]);
  check_dnf "lexicographic order" [ [ 0; 2 ]; [ 1 ]; [ 2; 3 ] ]
    (Or [ And [ Var 3; Var 2 ]; Var 1; And [ Var 2; Var 0 ] ])

(* The naive reference: distribute every AND, then deduplicate and
   absorb once at the end.  Shares no code with [Dnf]. *)
let reference_dnf f =
  let union a b = List.sort_uniq Int.compare (a @ b) in
  let subset a b = List.for_all (fun x -> List.mem x b) a in
  let rec go = function
    | Argus.Formula.True -> [ [] ]
    | Argus.Formula.False -> []
    | Argus.Formula.Var i -> [ [ i ] ]
    | Argus.Formula.Or fs -> List.concat_map go fs
    | Argus.Formula.And fs ->
        List.fold_left
          (fun acc f ->
            let d = go f in
            List.concat_map (fun ca -> List.map (union ca) d) acc)
          [ [] ] fs
  in
  let d = List.sort_uniq compare (go f) in
  List.filter (fun c -> not (List.exists (fun c' -> c' <> c && subset c' c) d)) d

(* random formulas for the equivalence property *)
let formula_gen =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (8, map (fun i -> Argus.Formula.Var (abs i mod 6)) int);
        (1, return Argus.Formula.True);
        (1, return Argus.Formula.False);
      ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 2,
            map
              (fun fs -> Argus.Formula.And fs)
              (list_size (int_range 1 3) (node (depth - 1))) );
          ( 2,
            map
              (fun fs -> Argus.Formula.Or fs)
              (list_size (int_range 1 3) (node (depth - 1))) );
        ]
  in
  node 4

let arbitrary_formula =
  QCheck.make ~print:(Format.asprintf "%a" Argus.Formula.pp) formula_gen

let prop_dnf_equivalent =
  QCheck.Test.make ~name:"DNF is logically equivalent to the formula" ~count:300
    arbitrary_formula (fun f ->
      let d = Argus.Dnf.of_formula f in
      (* exhaustively check all assignments over 6 variables *)
      let ok = ref true in
      for mask = 0 to 63 do
        let assign i = mask land (1 lsl i) <> 0 in
        if Argus.Formula.eval assign f <> Argus.Dnf.eval assign d then ok := false
      done;
      !ok)

let prop_dnf_minimal =
  QCheck.Test.make ~name:"DNF conjuncts are minimal (no conjunct subsumes another)"
    ~count:300 arbitrary_formula (fun f ->
      let d = Argus.Dnf.of_formula f in
      List.for_all
        (fun c ->
          not (List.exists (fun c' -> c' <> c && Argus.Dnf.conj_subset c' c) d))
        d)

let prop_dnf_matches_reference =
  QCheck.Test.make ~name:"DNF equals the naive reference, order included" ~count:500
    arbitrary_formula (fun f -> Argus.Dnf.of_formula f = reference_dnf f)

(* ------------------------------------------------------------------ *)
(* Inertia: the Appendix A.1 table, verbatim *)

let test_inertia_weights_verbatim () =
  let open Argus.Inertia in
  check_int "local/local = 0" 0 (weight (Trait { self_ = Local; trait_ = Local }));
  check_int "local/external = 1" 1 (weight (Trait { self_ = Local; trait_ = External }));
  check_int "external/local = 1" 1 (weight (Trait { self_ = External; trait_ = Local }));
  check_int "fn-to-local-trait = 1" 1 (weight (FnToTrait { trait_ = Local; arity = 3 }));
  check_int "external/external = 2" 2 (weight (Trait { self_ = External; trait_ = External }));
  check_int "tychange = 4" 4 (weight TyChange);
  check_int "incorrect params = 5d" 15 (weight (IncorrectParams { arity = 3 }));
  check_int "add params = 5d" 10 (weight (AddFnParams { delta = 2 }));
  check_int "delete params = 5d" 5 (weight (DeleteFnParams { delta = 1 }));
  check_int "fn-to-external = 4+5a" 9 (weight (FnToTrait { trait_ = External; arity = 1 }));
  check_int "ty-as-callable = 4+5a" 14 (weight (TyAsCallable { arity = 2 }));
  check_int "misc = 50" 50 (weight Misc)

let ext_tr name = Ty.trait_ref (Path.external_ "dep" [ name ])
let ext_ctor name = Ty.ctor (Path.external_ "dep" [ name ]) []
let fn_item = Ty.fn_item (Path.local [ "f" ]) [ ctor "A" ] Ty.Unit

let test_inertia_classify () =
  let open Argus.Inertia in
  (* the paper's two Bevy examples, §3.3 *)
  let timer_systemparam = Predicate.trait_ (ctor "Timer") (ext_tr "SystemParam") in
  check_bool "Timer: SystemParam is category 1" true
    (classify timer_systemparam = Trait { self_ = Local; trait_ = External });
  check_int "weight 1" 1 (score timer_systemparam);
  let run_timer_system = Predicate.trait_ fn_item (ext_tr "System") in
  check_bool "{run_timer}: System is fn-to-trait" true
    (classify run_timer_system = FnToTrait { trait_ = External; arity = 1 });
  check_int "weight 9" 9 (score run_timer_system);
  (* projections are TyChange *)
  let proj =
    Predicate.projection_eq (Ty.projection (ctor "A") (ext_tr "T") "Out") (ctor "B")
  in
  check_bool "projection is TyChange" true (classify proj = TyChange);
  (* a non-fn required to be callable *)
  let callable =
    Predicate.trait_ (ctor "A")
      (Ty.trait_ref ~args:[ Ty.tuple [ Ty.int; Ty.int ] ] (Path.external_ "std" [ "Fn" ]))
  in
  check_bool "non-fn as callable" true (classify callable = TyAsCallable { arity = 2 });
  (* fn with wrong arity against Fn *)
  let wrong_arity =
    Predicate.trait_ fn_item
      (Ty.trait_ref ~args:[ Ty.tuple [ Ty.int; Ty.int; Ty.int ] ] (Path.external_ "std" [ "Fn" ]))
  in
  check_bool "add params" true (classify wrong_arity = AddFnParams { delta = 2 });
  let fewer =
    Predicate.trait_ fn_item (Ty.trait_ref ~args:[ Ty.Unit ] (Path.external_ "std" [ "Fn" ]))
  in
  check_bool "delete params" true (classify fewer = DeleteFnParams { delta = 1 });
  let same_arity =
    Predicate.trait_ fn_item
      (Ty.trait_ref ~args:[ Ty.tuple [ Ty.int ] ] (Path.external_ "std" [ "Fn" ]))
  in
  check_bool "incorrect params" true (classify same_arity = IncorrectParams { arity = 1 });
  (* misc *)
  check_bool "outlives is misc" true
    (classify (Predicate.outlives (ctor "A") Region.Static) = Misc);
  (* external self, external trait *)
  check_bool "orphan category" true
    (classify (Predicate.trait_ (ext_ctor "DateTime") (ext_tr "Serialize"))
    = Trait { self_ = External; trait_ = External })

let test_inertia_bevy_ranking () =
  (* Fig. 10: {Timer: SystemParam} must outrank {run_timer: System} *)
  let _, tree = bevy_tree () in
  let ranking = Argus.Inertia.rank tree in
  check_bool "at least 2 MCSes" true (List.length ranking.sets >= 2);
  let first = List.hd ranking.sets in
  check_int "cheapest set is weight 1" 1 first.total;
  match first.predicates with
  | [ (p, _, _, _) ] -> check_str "is Timer: SystemParam" "Timer: SystemParam" (Pretty.predicate p)
  | _ -> Alcotest.fail "cheapest MCS shape"

let test_inertia_sorted_leaves_cover_all () =
  let _, tree = bevy_tree () in
  let sorted = Argus.Inertia.sorted_leaves tree in
  let all = Argus.Proof_tree.failed_leaves tree in
  check_int "same cardinality" (List.length all) (List.length sorted);
  List.iter
    (fun (n : Argus.Proof_tree.node) ->
      check_bool "leaf present" true
        (List.exists (fun (m : Argus.Proof_tree.node) -> m.id = n.id) sorted))
    all

(* ------------------------------------------------------------------ *)
(* Heuristics *)

let test_heuristics_rank_of_root_cause () =
  let entry = Option.get (Corpus.Suite.find "bevy-errant-param") in
  let _, tree = Corpus.Harness.failed_tree entry in
  let rc = Corpus.Harness.root_cause_pred entry in
  check_bool "inertia rank 0" true
    (Argus.Heuristics.rank_of_root_cause Argus.Heuristics.by_inertia tree ~root_cause:rc
    = Some 0);
  check_bool "missing pred gives None" true
    (Argus.Heuristics.rank_of_root_cause Argus.Heuristics.by_inertia tree
       ~root_cause:(Predicate.trait_ (ctor "Nope") (tr "Nada"))
    = None)

let test_heuristics_depth_orders_deepest_first () =
  let _, _, tree = failed_tree chain_fail in
  match (Argus.Heuristics.by_depth.rank tree : Argus.Proof_tree.node list) with
  | first :: _ ->
      let d (n : Argus.Proof_tree.node) =
        match n.kind with Argus.Proof_tree.Goal g -> g.depth | _ -> -1
      in
      let max_d =
        List.fold_left
          (fun acc n -> max acc (d n))
          0
          (Argus.Proof_tree.failed_leaves tree)
      in
      check_int "deepest first" max_d (d first)
  | [] -> Alcotest.fail "no leaves"

(* ------------------------------------------------------------------ *)
(* View state machine + renderer *)

let test_view_collapseseq () =
  let _, tree = bevy_tree () in
  (* disable the Other-failures fold to observe raw CollapseSeq *)
  let vs = Argus.View_state.create ~others_threshold:1000 tree in
  let lines0 = Argus.Render.view vs in
  (* collapsed: only the bottom-up roots are visible *)
  check_int "roots only" (List.length (Argus.View_state.roots vs)) (List.length lines0);
  let first = List.hd lines0 in
  check_bool "collapsed marker" true (first.expander = Argus.Render.Closed);
  let vs = Argus.View_state.expand vs first.node in
  let lines1 = Argus.Render.view vs in
  check_bool "expanding adds rows" true (List.length lines1 > List.length lines0);
  let vs = Argus.View_state.collapse vs first.node in
  check_int "collapse restores" (List.length lines0) (List.length (Argus.Render.view vs))

let test_view_expand_all_reaches_root () =
  let _, tree = bevy_tree () in
  let vs = Argus.View_state.expand_all (Argus.View_state.create tree) in
  let lines = Argus.Render.view vs in
  let root = Argus.Proof_tree.root tree in
  check_bool "root visible in bottom-up after full expansion" true
    (List.exists (fun (l : Argus.Render.line) -> l.node = root.id) lines)

let test_view_direction_roots () =
  let _, tree = bevy_tree () in
  let vs = Argus.View_state.create ~direction:Argus.View_state.Top_down tree in
  check_int "top-down has single root" 1 (List.length (Argus.View_state.roots vs));
  let vs = Argus.View_state.set_direction vs Argus.View_state.Bottom_up in
  check_bool "bottom-up has leaf roots" true (List.length (Argus.View_state.roots vs) > 1)

let test_view_bottom_up_first_root_is_inertia_best () =
  let entry = Option.get (Corpus.Suite.find "bevy-errant-param") in
  let _, tree = Corpus.Harness.failed_tree entry in
  let vs = Argus.View_state.create tree in
  match Argus.View_state.roots vs with
  | first :: _ -> (
      match first.kind with
      | Argus.Proof_tree.Goal g ->
          check_str "Timer: SystemParam first" "Timer: SystemParam"
            (Pretty.predicate g.pred)
      | _ -> Alcotest.fail "root should be a goal")
  | [] -> Alcotest.fail "no roots"

let test_view_shorttys_toggle () =
  let _, tree = bevy_tree () in
  let vs = Argus.View_state.create tree in
  let cfg = Argus.View_state.pretty_config vs 0 in
  check_bool "short by default" false cfg.qualified_paths;
  check_int "ellipsis depth" 2 cfg.max_depth;
  let vs = Argus.View_state.toggle_ty_expand vs 0 in
  check_int "expanded on demand" 1000 (Argus.View_state.pretty_config vs 0).max_depth;
  let vs = Argus.View_state.toggle_paths vs in
  check_bool "qualified after toggle" true (Argus.View_state.pretty_config vs 0).qualified_paths

let test_view_hover_minibuffer () =
  let entry = Option.get (Corpus.Suite.find "bevy-errant-param") in
  let _, tree = Corpus.Harness.failed_tree entry in
  let vs = Argus.View_state.create tree in
  check_bool "empty without hover" true (Argus.View_state.minibuffer vs = []);
  let first = List.hd (Argus.View_state.roots vs) in
  let vs = Argus.View_state.hover vs first.id in
  let paths = Argus.View_state.minibuffer vs in
  check_bool "has paths" true (paths <> []);
  check_bool "fully qualified" true
    (List.exists (fun p -> p = "bevy::SystemParam") paths);
  check_bool "unhover clears" true
    (Argus.View_state.minibuffer (Argus.View_state.unhover vs) = [])

let test_view_hides_stateful_predicates () =
  (* trees with normalization carry stateful nodes hidden by default *)
  let _, _, tree =
    failed_tree
      {|
      struct A; struct B; struct C;
      trait T { type Out; }
      trait U {}
      impl T for A { type Out = B; }
      struct W<X>;
      trait V {}
      impl V for W<<A as T>::Out> where B: U {}
      goal W<<A as T>::Out>: V;
    |}
  in
  let vs = Argus.View_state.create ~direction:Argus.View_state.Top_down tree in
  let visible_all = Argus.View_state.expand_all vs in
  let count_lines v = List.length (Argus.Render.view v) in
  let default_count = count_lines visible_all in
  let with_internal =
    count_lines (Argus.View_state.toggle_all_predicates visible_all)
  in
  check_bool "toggle reveals more" true (with_internal > default_count)

let test_render_markers () =
  let _, _, tree = failed_tree simple_fail in
  let s = Argus.Render.tree_to_string ~direction:Argus.View_state.Top_down tree in
  check_bool "has failure marker" true
    (String.length s > 0
    &&
    let contains sub =
      let rec go i =
        i + String.length sub <= String.length s
        && (String.sub s i (String.length sub) = sub || go (i + 1))
      in
      go 0
    in
    contains "✗" && contains "impl")

let test_render_line_indices_sequential () =
  let _, tree = bevy_tree () in
  let vs = Argus.View_state.expand_all (Argus.View_state.create tree) in
  let lines = Argus.Render.view vs in
  List.iteri (fun i (l : Argus.Render.line) -> check_int "index" i l.index) lines

let test_other_failures_fold () =
  let _, tree = bevy_tree () in
  let vs = Argus.View_state.create tree in
  let lines = Argus.Render.view vs in
  let n_roots = List.length (Argus.View_state.roots vs) in
  check_bool "tree has enough roots for the fold" true (n_roots > 4);
  (* threshold 3 shown + the fold row *)
  check_int "folded view" 4 (List.length lines);
  let fold_row = List.nth lines 3 in
  check_int "fold row sentinel" Argus.Render.others_row fold_row.node;
  check_bool "fold row labelled" true
    (String.length fold_row.text >= 14 && String.sub fold_row.text 0 14 = "Other failures");
  (* unfolding shows everything *)
  let vs = Argus.View_state.toggle_others vs in
  check_int "unfolded view" n_roots (List.length (Argus.Render.view vs));
  (* a single folded tail would be pointless: it is shown directly *)
  let vs2 = Argus.View_state.create ~others_threshold:(n_roots - 1) tree in
  check_int "no 1-element fold" n_roots (List.length (Argus.Render.view vs2))

(* ------------------------------------------------------------------ *)
(* The cached bottom-up order *)

(* A ranker that delegates to [r] and counts its calls. *)
let counting (r : Argus.Heuristics.ranker) =
  let calls = ref 0 in
  let rank tree =
    incr calls;
    r.rank tree
  in
  ({ r with rank } : Argus.Heuristics.ranker), calls

(* One seeded view operation, drawn against the currently rendered rows
   (a bottom-up view whose every failing leaf is hidden has none). *)
let random_view_op rng (lines : Argus.Render.line list) :
    Argus.View_state.t -> Argus.View_state.t =
  let module V = Argus.View_state in
  let flip vs =
    V.set_direction vs (if vs.V.direction = V.Bottom_up then V.Top_down else V.Bottom_up)
  in
  let k = Random.State.int rng 10 in
  if lines = [] then if k < 5 then V.toggle_all_predicates else flip
  else
    let line = List.nth lines (Random.State.int rng (List.length lines)) in
    match k with
    | 0 -> V.toggle_others
    | 1 -> V.toggle_all_predicates
    | 2 -> flip
    | _ when line.node = Argus.Render.others_row -> V.toggle_others
    | 3 | 4 -> fun vs -> V.hover vs line.node
    | _ -> fun vs -> V.toggle_expand vs line.node

let test_view_ranks_once_per_state () =
  let _, tree = bevy_tree () in
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  let inertia, inertia_calls = counting Argus.Heuristics.by_inertia in
  let vs = ref (Argus.View_state.create ~ranker:inertia tree) in
  check_int "create does not rank" 0 !inertia_calls;
  let lines = ref (Argus.Render.view !vs) in
  let rng = Random.State.make [| 13 |] in
  for _ = 1 to 50 do
    vs := random_view_op rng !lines !vs;
    lines := Argus.Render.view !vs
  done;
  check_int "one ranking across 50 round trips" 1 !inertia_calls;
  check_int "view.rankings counted it" 1 (Telemetry.counter_value "view.rankings");
  let bu = Argus.View_state.set_direction !vs Argus.View_state.Bottom_up in
  let ids = List.map (fun (n : Argus.Proof_tree.node) -> n.id) in
  let before = ids (Argus.View_state.roots bu) in
  let depth, depth_calls = counting Argus.Heuristics.by_depth in
  let bu = Argus.View_state.set_ranker bu depth in
  ignore (Argus.Render.view bu);
  ignore (Argus.Render.view (Argus.View_state.toggle_others bu));
  let after = ids (Argus.View_state.roots bu) in
  check_int "set_ranker ranks exactly once more" 1 !depth_calls;
  check_int "the old ranker is not called again" 1 !inertia_calls;
  check_int "view.rankings after set_ranker" 2 (Telemetry.counter_value "view.rankings");
  check_bool "by_depth reorders the roots" true (before <> after);
  check_bool "same roots, new order" true (List.sort compare before = List.sort compare after)

let identity_corpus = Corpus.Suite.entries @ Corpus.Suite.extended @ Corpus.Suite.extras

(* Every failing goal's tree in the corpus, plus two Fig. 12b sizes and
   a tree whose only failing leaves are hidden internal predicates (so the
   bottom-up view is empty until the predicate toggle). *)
let identity_trees () =
  List.concat_map
    (fun (e : Corpus.Harness.entry) ->
      let _, report = Corpus.Harness.solve e in
      List.map
        (fun r -> (e.id, Argus.Extract.of_report r))
        (Solver.Obligations.errors report))
    identity_corpus
  @ List.map
      (fun n -> (Printf.sprintf "synthetic-%d" n, Argus.Synthetic.of_size n))
      [ 500; 2554 ]
  @ [
      ( "hidden-leaves",
        let _, _, tree =
          failed_tree
            {|
            struct A;
            trait T { type Out; }
            struct W<X>;
            trait V {}
            impl V for W<<A as T>::Out> {}
            goal W<<A as T>::Out>: V;
          |}
        in
        tree );
    ]

(* Every tree above, and every Fig. 12b size, normalizes exactly as the
   naive reference does. *)
let test_dnf_matches_reference_on_trees () =
  List.iter
    (fun (name, tree) ->
      let f, _ = Argus.Formula.of_tree tree in
      check_dnf name (reference_dnf f) f)
    (identity_trees ()
    @ List.map
        (fun n -> (Printf.sprintf "synthetic-%d" n, Argus.Synthetic.of_size n))
        Argus.Synthetic.fig12b_sizes)

let test_view_cached_order_renders_identically () =
  let trees = identity_trees () in
  let failing_entries =
    List.filter
      (fun (e : Corpus.Harness.entry) -> e.root_cause <> "")
      identity_corpus
  in
  check_bool "every failing entry contributes a tree" true
    (List.length trees >= List.length failing_entries + 3);
  List.iteri
    (fun i (name, tree) ->
      let rng = Random.State.make [| 0x7673; i |] in
      let fresh_replay ops =
        List.fold_left (fun vs op -> op vs) (Argus.View_state.create tree) (List.rev ops)
      in
      let ids = List.map (fun (n : Argus.Proof_tree.node) -> n.id) in
      let rec go step ops vs lines =
        if step < 20 then begin
          let op = random_view_op rng lines in
          let vs = op vs and ops = op :: ops in
          let lines = Argus.Render.view vs in
          let msg what = Printf.sprintf "%s step %d: %s" name step what in
          check_bool (msg "render = fresh replay") true
            (lines = Argus.Render.view (fresh_replay ops));
          (* the roots as defined before the order was cached *)
          let reference =
            match vs.direction with
            | Argus.View_state.Top_down -> [ Argus.Proof_tree.root tree ]
            | Bottom_up -> List.filter (Argus.View_state.node_visible vs) (vs.ranker.rank tree)
          in
          check_bool (msg "roots = ranker output, filtered") true
            (ids (Argus.View_state.roots vs) = ids reference);
          go (step + 1) ops vs lines
        end
      in
      let vs = Argus.View_state.create tree in
      go 0 [] vs (Argus.Render.view vs))
    trees

(* ------------------------------------------------------------------ *)
(* DOT rendering *)

let test_dot_valid () =
  let _, tree = bevy_tree () in
  let dot = Argus.Dot.of_tree tree in
  check_bool "digraph header" true (String.sub dot 0 7 = "digraph");
  (* one node line per tree node, one edge per parent link *)
  let count needle =
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length dot then acc
      else go (i + 1) (if String.sub dot i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  check_int "every node rendered" (Argus.Proof_tree.size tree) (count " [label=");
  check_int "every edge rendered" (Argus.Proof_tree.size tree - 1) (count " -> n")

let test_dot_failures_only () =
  let _, tree = bevy_tree () in
  let opts = { Argus.Dot.default_options with show_successes = false } in
  let full = Argus.Dot.of_tree tree in
  let filtered = Argus.Dot.of_tree ~opts tree in
  check_bool "filtered is smaller" true (String.length filtered < String.length full);
  (* the proven Fn builtin candidate must be gone *)
  let contains_ hay needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "successes dropped" false (contains_ filtered "#1a7f37");
  check_bool "full view has successes" true (contains_ full "#1a7f37");
  check_bool "root cause kept" true (contains_ filtered "Timer: SystemParam")

(* ------------------------------------------------------------------ *)
(* HTML embedding *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_html_escape () =
  check_str "escapes" "&lt;A as T&gt;::Out &amp; &quot;x&quot;"
    (Argus.Html.escape {|<A as T>::Out & "x"|});
  check_str "plain unchanged" "Timer: SystemParam" (Argus.Html.escape "Timer: SystemParam")

let test_html_page_structure () =
  let program, tree = bevy_tree () in
  let html = Argus.Html.page ~program ~diagnostic:(Some "error[E0277]: nope") tree in
  check_bool "doctype" true (contains html "<!DOCTYPE html>");
  check_bool "both views" true
    (contains html "Bottom up" && contains html "Top down");
  check_bool "diagnostic included" true (contains html "error[E0277]: nope");
  check_bool "root cause present" true (contains html "Timer: SystemParam");
  check_bool "disclosure widgets" true (contains html "<details");
  (* tags balance *)
  let count needle =
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length html then acc
      else go (i + 1) (if String.sub html i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  check_int "details balanced" (count "<details") (count "</details>");
  (* all user text is escaped: a raw `<...>` from a generic type must not
     appear outside a tag; spot-check the root goal's generic *)
  check_bool "generics escaped" true (contains html "IntoSystemConfigs&lt;")

let test_html_view_respects_state () =
  let _, tree = bevy_tree () in
  let collapsed = Argus.View_state.create ~others_threshold:1000 tree in
  let expanded = Argus.View_state.expand_all collapsed in
  let h1 = Argus.Html.view_to_html collapsed in
  let h2 = Argus.Html.view_to_html expanded in
  check_bool "expanded page is larger" true (String.length h2 > String.length h1);
  check_bool "expanded uses open attr" true (contains h2 "<details open>")

(* ------------------------------------------------------------------ *)
(* CtxtLinks *)

let test_ctxlinks_impl_listing () =
  let program, _ = bevy_tree () in
  let sp =
    match Program.resolve_name program "SystemParam" with
    | Ok p -> p
    | Error _ -> Alcotest.fail "SystemParam not found"
  in
  let impls = Argus.Ctxlinks.impls_of_trait program sp in
  check_int "bevy_lite has 5 SystemParam impls" 5 (List.length impls);
  check_bool "mentions ResMut" true
    (List.exists
       (fun s ->
         let rec contains i =
           i + 6 <= String.length s && (String.sub s i 6 = "ResMut" || contains (i + 1))
         in
         contains 0)
       impls)

let test_ctxlinks_jump_targets () =
  let program, tree = bevy_tree () in
  let leaf = List.hd (Argus.Inertia.sorted_leaves tree) in
  let jumps = Argus.Ctxlinks.jump_targets program leaf in
  (* Timer (local) and SystemParam (bevy) both have declaration spans *)
  check_bool "two jump targets" true (List.length jumps >= 2);
  List.iter
    (fun (j : Argus.Ctxlinks.jump) ->
      check_bool "span is real" true (not (Span.is_dummy j.target)))
    jumps

let test_ctxlinks_span_of_nodes () =
  let program, tree = bevy_tree () in
  (* every impl candidate node must map to its impl block's span *)
  Argus.Proof_tree.fold
    (fun () (n : Argus.Proof_tree.node) ->
      match n.kind with
      | Argus.Proof_tree.Cand { source = Solver.Trace.Cand_impl _; _ } ->
          check_bool "impl has span" true (Argus.Ctxlinks.span_of_node program n <> None)
      | _ -> ())
    () tree

(* ------------------------------------------------------------------ *)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_dnf_equivalent; prop_dnf_minimal; prop_dnf_matches_reference ]

let () =
  Alcotest.run "argus"
    [
      ( "extract",
        [
          Alcotest.test_case "generalizes" `Quick test_generalizes;
          Alcotest.test_case "consistent bindings" `Quick test_generalizes_consistent_bindings;
          Alcotest.test_case "dedup attempts" `Quick test_dedup_attempts;
        ] );
      ( "proof_tree",
        [
          Alcotest.test_case "structure" `Quick test_tree_roundtrip_structure;
          Alcotest.test_case "failed leaves" `Quick test_tree_failed_leaves;
          Alcotest.test_case "ancestors/distance" `Quick test_tree_ancestors_and_distance;
          Alcotest.test_case "goal count" `Quick test_tree_goal_count;
        ] );
      ( "formula",
        [
          Alcotest.test_case "linear chain" `Quick test_formula_of_linear_chain;
          Alcotest.test_case "eval" `Quick test_formula_eval;
        ] );
      ( "dnf",
        [
          Alcotest.test_case "distribution" `Quick test_dnf_basic;
          Alcotest.test_case "absorption" `Quick test_dnf_absorption;
          Alcotest.test_case "true/false" `Quick test_dnf_true_false;
          Alcotest.test_case "edge shapes" `Quick test_dnf_edge_shapes;
          Alcotest.test_case "reference on corpus and Fig 12b" `Quick
            test_dnf_matches_reference_on_trees;
        ] );
      ( "inertia",
        [
          Alcotest.test_case "weights verbatim" `Quick test_inertia_weights_verbatim;
          Alcotest.test_case "classification" `Quick test_inertia_classify;
          Alcotest.test_case "bevy ranking (Fig 10)" `Quick test_inertia_bevy_ranking;
          Alcotest.test_case "sorted leaves cover" `Quick test_inertia_sorted_leaves_cover_all;
        ] );
      ( "heuristics",
        [
          Alcotest.test_case "rank of root cause" `Quick test_heuristics_rank_of_root_cause;
          Alcotest.test_case "depth deepest-first" `Quick test_heuristics_depth_orders_deepest_first;
        ] );
      ( "views",
        [
          Alcotest.test_case "CollapseSeq" `Quick test_view_collapseseq;
          Alcotest.test_case "expand-all reaches root" `Quick test_view_expand_all_reaches_root;
          Alcotest.test_case "direction roots" `Quick test_view_direction_roots;
          Alcotest.test_case "inertia-first root" `Quick test_view_bottom_up_first_root_is_inertia_best;
          Alcotest.test_case "ShortTys toggles" `Quick test_view_shorttys_toggle;
          Alcotest.test_case "hover minibuffer" `Quick test_view_hover_minibuffer;
          Alcotest.test_case "stateful hidden" `Quick test_view_hides_stateful_predicates;
          Alcotest.test_case "render markers" `Quick test_render_markers;
          Alcotest.test_case "line indices" `Quick test_render_line_indices_sequential;
          Alcotest.test_case "Other failures fold" `Quick test_other_failures_fold;
          Alcotest.test_case "ranks once per view state" `Quick test_view_ranks_once_per_state;
          Alcotest.test_case "cached order renders identically" `Quick
            test_view_cached_order_renders_identically;
        ] );
      ( "dot",
        [
          Alcotest.test_case "valid digraph" `Quick test_dot_valid;
          Alcotest.test_case "failures-only filter" `Quick test_dot_failures_only;
        ] );
      ( "html",
        [
          Alcotest.test_case "escape" `Quick test_html_escape;
          Alcotest.test_case "page structure" `Quick test_html_page_structure;
          Alcotest.test_case "respects view state" `Quick test_html_view_respects_state;
        ] );
      ( "ctxlinks",
        [
          Alcotest.test_case "impl listing" `Quick test_ctxlinks_impl_listing;
          Alcotest.test_case "jump targets" `Quick test_ctxlinks_jump_targets;
          Alcotest.test_case "span of nodes" `Quick test_ctxlinks_span_of_nodes;
        ] );
      ("properties", qcheck_tests);
    ]

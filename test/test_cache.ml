(** Tests for the performance layer: the substitution and resolution
    sharing fast paths, and the evaluation cache — including the
    load-bearing property that caching is {e observationally
    invisible}: cache-on and cache-off runs produce identical proof
    trees over the whole corpus (the cache fuzz oracle), and a recording
    run streams the same journal cache on and off, touching no cache —
    and the cache's lifetime: one run, and nothing after it. *)

open Trait_lang

let parse src = Resolve.program_of_string ~file:"test.trait" src

let cache_on () = Solver.Eval_cache.set_enabled true

(* The program with every root goal doubled: solved in one run, the
   second copy of each ground goal replays the first copy's entry. *)
let doubled program =
  Program.with_goals (Program.goals program @ Program.goals program) program

(* ------------------------------------------------------------------ *)
(* QCheck properties: substitution sharing *)

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
    [ prop_subst_empty_physical; prop_subst_unbound_physical ]

(* ------------------------------------------------------------------ *)
(* Resolution and normalization share what they do not change *)

(* The copying resolution the solver used to run: rebuilds every node. *)
let rec copy_resolve icx (ty : Ty.t) : Ty.t =
  match ty with
  | Unit | Bool | Int | Uint | Float | Str | Param _ -> ty
  | Infer i -> (
      match Solver.Infer_ctx.probe icx i with
      | Some b -> copy_resolve icx b
      | None -> Ty.Infer (Solver.Infer_ctx.root icx i))
  | Ref (r, t) -> Ref (r, copy_resolve icx t)
  | RefMut (r, t) -> RefMut (r, copy_resolve icx t)
  | Ctor (p, args) -> Ctor (p, List.map (copy_arg icx) args)
  | Tuple ts -> Tuple (List.map (copy_resolve icx) ts)
  | FnPtr (args, ret) -> FnPtr (List.map (copy_resolve icx) args, copy_resolve icx ret)
  | FnItem (p, args, ret) ->
      FnItem (p, List.map (copy_resolve icx) args, copy_resolve icx ret)
  | Dynamic tr -> Dynamic (copy_trait_ref icx tr)
  | Proj p -> Proj (copy_projection icx p)

and copy_arg icx : Ty.arg -> Ty.arg = function
  | Ty t -> Ty (copy_resolve icx t)
  | Lifetime r -> Lifetime r

and copy_trait_ref icx (tr : Ty.trait_ref) = { tr with args = List.map (copy_arg icx) tr.args }

and copy_projection icx (p : Ty.projection) =
  {
    p with
    self_ty = copy_resolve icx p.self_ty;
    proj_trait = copy_trait_ref icx p.proj_trait;
    assoc_args = List.map (copy_arg icx) p.assoc_args;
  }

let copy_resolve_predicate icx (p : Predicate.t) : Predicate.t =
  match p with
  | Trait { self_ty; trait_ref } ->
      Trait { self_ty = copy_resolve icx self_ty; trait_ref = copy_trait_ref icx trait_ref }
  | Projection { projection; term } ->
      Projection { projection = copy_projection icx projection; term = copy_resolve icx term }
  | TypeOutlives (t, r) -> TypeOutlives (copy_resolve icx t, r)
  | WellFormed t -> WellFormed (copy_resolve icx t)
  | NormalizesTo (pr, v) -> NormalizesTo (copy_projection icx pr, v)
  | RegionOutlives _ | ObjectSafe _ | ConstEvaluatable _ -> p

(* 300 generated programs and the 1000-impl mega library. *)
let sharing_programs () =
  List.init 300 (fun seed ->
      Fuzz.Gen.render (Fuzz.Gen.generate ~seed ~iter:1 ~size:Fuzz.Gen.default_size))
  @ [ Fuzz.Gen.render (Fuzz.Gen.generate_mega ~goals:64 ~seed:1 ~impls:1000) ]
  |> List.map parse

(* Every predicate resolves to the copying version's result, physically
   to itself when that result is structurally unchanged, and resolving
   again returns the result physically.  The predicates: each program's
   goals and the predicates of its solved trees, against the bindings
   the solve left; and each impl's head and where-clauses instantiated
   with fresh variables, every other one bound and every third of the
   rest linked. *)
let test_resolve_shares () =
  cache_on ();
  let checked = ref 0 and shared = ref 0 in
  List.iter
    (fun program ->
      let report = Solver.Obligations.solve_program program in
      let check icx (p : Predicate.t) =
        let r = Solver.Infer_ctx.resolve_predicate icx p in
        let c = copy_resolve_predicate icx p in
        incr checked;
        if not (Predicate.equal r c) then
          Alcotest.failf "resolve differs from the copying version on %s"
            (Pretty.predicate ~cfg:Pretty.verbose p);
        if Predicate.equal c p then begin
          incr shared;
          if r != p then
            Alcotest.failf "unchanged %s was copied" (Pretty.predicate ~cfg:Pretty.verbose p)
        end;
        if Solver.Infer_ctx.resolve_predicate icx r != r then
          Alcotest.failf "resolving %s again copied it" (Pretty.predicate ~cfg:Pretty.verbose r)
      in
      let solved = report.solver.icx in
      List.iter (fun (g : Program.goal) -> check solved g.goal_pred) (Program.goals program);
      List.iter
        (fun (r : Solver.Obligations.goal_report) ->
          List.iter
            (Solver.Trace.fold_goals
               (fun () (g : Solver.Trace.goal_node) -> check solved g.pred)
               ())
            r.attempts)
        report.reports;
      let icx = Solver.Infer_ctx.for_program program in
      List.iter
        (fun (impl : Decl.impl) ->
          let subst = Solver.Infer_ctx.instantiate_generics icx impl.impl_generics in
          List.iteri
            (fun k (_, (v : Ty.t)) ->
              match v with
              | Infer i when k mod 2 = 0 -> Solver.Infer_ctx.bind icx i impl.impl_self
              | Infer i when k mod 3 = 1 -> Solver.Infer_ctx.link icx i (Solver.Infer_ctx.fresh icx)
              | _ -> ())
            (Subst.bindings subst);
          check icx
            (Predicate.Trait
               {
                 self_ty = Subst.ty subst impl.impl_self;
                 trait_ref = Subst.trait_ref subst impl.impl_trait;
               });
          List.iter (fun wc -> check icx (Subst.predicate subst wc)) impl.impl_generics.where_clauses)
        (Program.impls program))
    (sharing_programs ());
  Alcotest.(check bool) "both sides exercised" true (!shared > 0 && !shared < !checked)

(* The structural copy of a type, sharing nothing with the program. *)
let rec deep_copy (ty : Ty.t) : Ty.t =
  match ty with
  | Unit | Bool | Int | Uint | Float | Str -> ty
  | Param x -> Param (String.concat "" [ x ])
  | Infer i -> Infer i
  | Ref (r, t) -> Ref (r, deep_copy t)
  | RefMut (r, t) -> RefMut (r, deep_copy t)
  | Ctor (p, args) -> Ctor (p, List.map deep_copy_arg args)
  | Tuple ts -> Tuple (List.map deep_copy ts)
  | FnPtr (args, ret) -> FnPtr (List.map deep_copy args, deep_copy ret)
  | FnItem (p, args, ret) -> FnItem (p, List.map deep_copy args, deep_copy ret)
  | Dynamic tr -> Dynamic { tr with args = List.map deep_copy_arg tr.args }
  | Proj p ->
      Proj
        {
          p with
          self_ty = deep_copy p.self_ty;
          proj_trait = { p.proj_trait with args = List.map deep_copy_arg p.proj_trait.args };
          assoc_args = List.map deep_copy_arg p.assoc_args;
        }

and deep_copy_arg : Ty.arg -> Ty.arg = function
  | Ty t -> Ty (deep_copy t)
  | Lifetime r -> Lifetime r

(* Every type of a program's goals and impl heads, deep-normalized by a
   fresh solver: with no projection in it, it comes back physically;
   either way the result, and the nodes evaluated, equal what a twin
   solver makes of a structural copy that shares nothing. *)
let test_normalize_shares () =
  cache_on ();
  let normalized = ref 0 and shared = ref 0 in
  List.iter
    (fun program ->
      let tys =
        List.concat_map
          (fun (g : Program.goal) ->
            Predicate.fold_tys (fun acc t -> t :: acc) [] g.goal_pred)
          (Program.goals program)
        @ List.map (fun (i : Decl.impl) -> i.impl_self) (Program.impls program)
      in
      List.iter
        (fun ty ->
          let run ty =
            Journal.reset_ids ();
            Solver.Solve.normalize (Solver.Solve.create program) ty
          in
          let t1, n1 = run ty in
          let t2, n2 = run (deep_copy ty) in
          incr normalized;
          if n1 = [] then begin
            incr shared;
            if t1 != ty then
              Alcotest.failf "projection-free %s was copied" (Pretty.ty ~cfg:Pretty.verbose ty)
          end;
          if not (Ty.equal t1 t2) then
            Alcotest.failf "%s normalizes differently from its copy"
              (Pretty.ty ~cfg:Pretty.verbose ty);
          if
            not
              (List.length n1 = List.length n2
              && List.for_all2
                   (fun a b ->
                     Journal.equal_goal (Solver.Jlog.rtree_of_trace a)
                       (Solver.Jlog.rtree_of_trace b))
                   n1 n2)
          then
            Alcotest.failf "%s evaluates different nodes from its copy"
              (Pretty.ty ~cfg:Pretty.verbose ty))
        tys)
    (sharing_programs ());
  Alcotest.(check bool) "both sides exercised" true (!shared > 0 && !shared < !normalized)

(* ------------------------------------------------------------------ *)
(* The switch *)

let test_no_cache_when_disabled () =
  Solver.Eval_cache.set_enabled false;
  let program = parse "struct A; trait T {} impl T for A {} goal A: T;" in
  let pred = (List.hd (Program.goals program)).Program.goal_pred in
  let cache = Solver.Eval_cache.create () in
  let st = Solver.Solve.create ~cache program in
  ignore (Solver.Solve.solve st pred);
  let n = Solver.Eval_cache.length cache in
  Solver.Eval_cache.set_enabled true;
  Alcotest.(check int) "no tree entries stored while disabled" 0 n

(* ------------------------------------------------------------------ *)
(* Scope: a run's table starts empty and ends with the run *)

let count_cache name f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable (fun () ->
      f ();
      Telemetry.counter_value name)

(* Two runs of one program value: the second finds nothing of the
   first's, so both count the same lookups, misses and inserts. *)
let test_run_starts_empty () =
  cache_on ();
  Alcotest.(check int) "a new cache holds nothing" 0
    (Solver.Eval_cache.length (Solver.Eval_cache.create ()));
  let program = Corpus.Harness.load (Option.get (Corpus.Suite.find "diesel-missing-join")) in
  List.iter
    (fun name ->
      let run () = ignore (Solver.Obligations.solve_program program) in
      let first = count_cache name run in
      let second = count_cache name run in
      Alcotest.(check int) (name ^ ": the second run counts what the first did") first second)
    [ "cache.tree.hits"; "cache.tree.misses"; "cache.tree.inserts" ];
  Alcotest.(check bool) "the first run inserted" true
    (count_cache "cache.tree.inserts" (fun () ->
         ignore (Solver.Obligations.solve_program program))
    > 0)

(* ------------------------------------------------------------------ *)
(* Corpus-wide equivalence: cache on/off produce identical proof trees *)

(** For every corpus program, the cache oracle: solve it with the cache
    off and on, then the program with every goal doubled off and on
    (there the second copies exercise replay).  Each pair must agree on
    statuses, rounds and, node for node and id for id, the trees. *)
let test_corpus_equivalence () =
  List.iter
    (fun (e : Corpus.Harness.entry) ->
      match Fuzz.Oracle.check Fuzz.Oracle.Cache ~source:e.source with
      | Fuzz.Oracle.Pass -> ()
      | Fuzz.Oracle.Fail m -> Alcotest.failf "%s: %s" e.id m)
    Corpus.Suite.all

(* ------------------------------------------------------------------ *)
(* Journal streams: a recording solve never touches the cache *)

let cache_counters () =
  List.filter
    (fun (name, _) -> String.starts_with ~prefix:"cache." name)
    (Telemetry.snapshot ()).sn_counters

(** For each program: record a cache-off journal, check that an
    unjournaled cache-on run does use the cache, then record again with
    the cache on.  The two streams must be equal line for line
    (timestamps zeroed), and the recording must leave every [cache.*]
    counter as it was. *)
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
      cache_on ();
      let inserts = Telemetry.counter_value "cache.tree.inserts" in
      ignore (Solver.Obligations.solve_program program);
      (* ast-overflow's subtrees are all overflow-flagged, so nothing is
         ever inserted — by design. *)
      if id <> "ast-overflow" then
        Alcotest.(check bool) (id ^ ": the unjournaled run filled its cache") true
          (Telemetry.counter_value "cache.tree.inserts" > inserts);
      let counters = cache_counters () in
      let on = record program in
      Alcotest.(check (list string)) (id ^ ": cache-on stream = cache-off stream") off on;
      Alcotest.(check (list (pair string int)))
        (id ^ ": cache.* counters unchanged") counters (cache_counters ()))
    [ "diesel-missing-join"; "bevy-errant-param"; "ast-overflow"; "axum-body-first" ]

(* ------------------------------------------------------------------ *)
(* Telemetry visibility *)

let test_cache_counters_in_telemetry () =
  cache_on ();
  let e = Option.get (Corpus.Suite.find "diesel-missing-join") in
  let program = doubled (Corpus.Harness.load e) in
  Alcotest.(check bool) "the doubled goals count tree hits" true
    (count_cache "cache.tree.hits" (fun () ->
         ignore (Solver.Obligations.solve_program program))
    > 0)

(* ------------------------------------------------------------------ *)
(* Sessions: every resolve is a run of its own *)

(* A goal-only edit evicts nothing, since no table outlives its run; in
   the next resolve the duplicated goal replays its first copy. *)
let test_duplicated_goal_replays () =
  cache_on ();
  let program =
    parse
      "struct A; struct B; trait T1 {} trait T2 {} impl T1 for A {} impl T2 for B {} \
       goal A: T1; goal B: T2;"
  in
  let session = Solver.Session.create () in
  ignore (Solver.Session.load session program);
  ignore (Solver.Session.resolve session);
  let edited = Fuzz.Edit.apply program (Fuzz.Edit.Dup_goal 0) in
  let delta = Solver.Session.edit session edited in
  Alcotest.(check int) "goal edit evicts nothing" 0 delta.Solver.Session.d_evicted;
  Telemetry.reset ();
  Telemetry.enable ();
  let report = Solver.Session.resolve session in
  Telemetry.disable ();
  Alcotest.(check int) "three goals" 3 (List.length report.Solver.Obligations.reports);
  Alcotest.(check int) "the duplicate replays" 1 (Telemetry.counter_value "cache.tree.hits");
  Alcotest.(check int) "the two distinct goals solve" 2
    (Telemetry.counter_value "cache.tree.misses");
  Alcotest.(check int) "still no errors" 0 (List.length (Solver.Session.errors session))

(* One session fed 1,000 freshly parsed versions of a corpus program:
   every resolve solves cold, counting exactly the first version's cache
   traffic, and no edit has anything to evict. *)
let test_versions_solve_cold () =
  cache_on ();
  let e = Option.get (Corpus.Suite.find "diesel-missing-join") in
  let session = Solver.Session.create () in
  let traffic () =
    List.map Telemetry.counter_value [ "cache.tree.hits"; "cache.tree.misses"; "cache.tree.inserts" ]
  in
  let resolve () =
    Telemetry.reset ();
    Telemetry.enable ();
    ignore (Solver.Session.resolve session);
    Telemetry.disable ();
    traffic ()
  in
  ignore (Solver.Session.load session (Corpus.Harness.load e));
  let one = resolve () in
  Alcotest.(check bool) "one version fills its table" true (List.nth one 2 > 0);
  for i = 2 to 1000 do
    let delta = Solver.Session.edit session (Corpus.Harness.load e) in
    if delta.Solver.Session.d_evicted <> 0 then
      Alcotest.failf "version %d: evicted %d entries" i delta.Solver.Session.d_evicted;
    if resolve () <> one then Alcotest.failf "version %d: cache traffic differs from version 1" i
  done

(* Nothing outlives its run: after a warm-up round, the live heap of
   2,000 sequential parse+solve runs of distinct generated programs (one
   seed each) stays within a constant of where it started.  A table
   that kept entries across runs, or a global one keyed by the
   programs' terms, holds thousands of dead entries by then. *)
let test_runs_leave_no_heap () =
  cache_on ();
  let run seed =
    let source =
      Fuzz.Gen.render (Fuzz.Gen.generate ~seed ~iter:0 ~size:Fuzz.Gen.default_size)
    in
    ignore (Solver.Obligations.solve_program (parse source))
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).live_words
  in
  for i = 0 to 39 do
    run i
  done;
  let start = live () in
  for i = 40 to 2039 do
    run i
  done;
  let growth = live () - start in
  (* 64 Ki words = 512 KB on 64-bit *)
  if growth > 65_536 then
    Alcotest.failf "live heap grew by %d words over 2,000 runs (bound 65536)" growth

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cache"
    [
      ("properties", qcheck_tests);
      ( "sharing",
        [
          Alcotest.test_case "resolve shares unchanged terms" `Quick test_resolve_shares;
          Alcotest.test_case "normalize shares unchanged terms" `Quick test_normalize_shares;
        ] );
      ( "tiers",
        [
          Alcotest.test_case "disabled stores nothing" `Quick test_no_cache_when_disabled;
          Alcotest.test_case "a run starts empty" `Quick test_run_starts_empty;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "corpus proof trees" `Quick test_corpus_equivalence;
          Alcotest.test_case "journal streams" `Quick test_journal_stream_equivalence;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "counters visible" `Quick test_cache_counters_in_telemetry ] );
      ( "red-green",
        [
          Alcotest.test_case "a duplicated goal replays in its run" `Quick
            test_duplicated_goal_replays;
        ] );
      ( "session",
        [
          Alcotest.test_case "1,000 versions each solve cold" `Quick test_versions_solve_cold;
          Alcotest.test_case "2,000 runs leave no live heap" `Quick test_runs_leave_no_heap;
        ] );
    ]

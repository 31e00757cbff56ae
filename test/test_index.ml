(** Tests for fast-reject candidate assembly ({!Solver.Fast_reject}):
    the load-bearing soundness property that a head-incompatible
    (goal, impl) pair can never unify — fast reject only ever discards
    impls unification was guaranteed to fail on — plus the candidate
    lists it keeps, in declaration order, on known programs. *)

open Trait_lang

let parse src = Resolve.program_of_string ~file:"test.trait" src

let impl_ids (impls : Decl.impl list) = List.map (fun i -> i.Decl.impl_id) impls

(* ------------------------------------------------------------------ *)
(* Generators *)

(* Goal-side self types: every head [simplify_goal] distinguishes, plus
   inference variables and nesting so heads collide and differ. *)
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
        return (Ty.dynamic (Ty.trait_ref (Path.local [ "Tr" ])));
        return (Ty.fn_item (Path.local [ "f" ]) [] Ty.Unit);
      ]
  in
  let rec node depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          (1, map (fun t -> Ty.ref_ t) (node (depth - 1)));
          (1, map (fun t -> Ty.ref_mut t) (node (depth - 1)));
          (1, map (fun t -> Ty.ctor (Path.external_ "c" [ "B" ]) [ t ]) (node (depth - 1)));
          (1, map2 (fun a b -> Ty.tuple [ a; b ]) (node (depth - 1)) (node (depth - 1)));
          (1, map2 (fun a b -> Ty.fn_ptr [ a ] b) (node (depth - 1)) (node (depth - 1)));
        ]
  in
  node 3

(* An impl of a one-trait program whose self type is drawn from the
   same space as the goals.  Half the impls are generic over T and U,
   so [Ty.param "T"] heads become blanket impls (wildcards) while the
   other half keep the parameter rigid — both sides of
   [simplify_impl]'s parameter rule get exercised. *)
let impl_gen =
  let open QCheck.Gen in
  map2
    (fun self generic ->
      {
        Decl.impl_id = 0;
        impl_generics = (if generic then Decl.generics [ "T"; "U" ] else Decl.no_generics);
        impl_trait = Ty.trait_ref (Path.local [ "Trait" ]);
        impl_self = self;
        impl_assocs = [];
        impl_span = Span.dummy;
        impl_crate = Path.Local;
      })
    ty_gen bool

let print_pair (goal, impl) =
  Printf.sprintf "goal %s  /  impl%s for %s"
    (Pretty.ty ~cfg:Pretty.verbose goal)
    (if impl.Decl.impl_generics.Decl.ty_params = [] then "" else "<T, U>")
    (Pretty.ty ~cfg:Pretty.verbose impl.Decl.impl_self)

let arbitrary_goal_impl = QCheck.make ~print:print_pair QCheck.Gen.(pair ty_gen impl_gen)

(* ------------------------------------------------------------------ *)
(* Soundness: rejects ⇒ unify fails *)

(* The one property the whole optimization stands on: if the simplified
   heads are incompatible, then unifying the goal against the impl's
   instantiated self type (generics replaced by fresh inference
   variables, exactly as candidate evaluation does) must fail.  The
   converse need not hold — compatibility is allowed to be
   over-approximate — so only rejection is checked. *)
let prop_reject_sound =
  QCheck.Test.make ~name:"fast reject: rejected pairs can never unify" ~count:2000
    arbitrary_goal_impl (fun (goal, impl) ->
      let g = Solver.Fast_reject.simplify_goal goal in
      let i = Solver.Fast_reject.simplify_impl impl in
      if Solver.Fast_reject.compatible g i then true
      else
        let icx = Solver.Infer_ctx.create () in
        ignore (Solver.Infer_ctx.alloc_vars icx 8);
        let subst = Solver.Infer_ctx.instantiate_generics icx impl.Decl.impl_generics in
        let inst_self = Subst.ty subst impl.Decl.impl_self in
        (match Solver.Unify.unify icx goal inst_self with
        | Error _ -> true
        | Ok () ->
            QCheck.Test.fail_reportf "rejected (%s vs %s) but unification succeeded"
              (match g with
              | None -> "_"
              | Some s -> Solver.Fast_reject.simplified_to_string s)
              (match i with
              | None -> "_"
              | Some s -> Solver.Fast_reject.simplified_to_string s)))

(* A wildcard on either side must never reject. *)
let prop_wildcard_compatible =
  QCheck.Test.make ~name:"wildcard heads match everything" ~count:500 arbitrary_goal_impl
    (fun (goal, impl) ->
      let g = Solver.Fast_reject.simplify_goal goal in
      let i = Solver.Fast_reject.simplify_impl impl in
      (g <> None || Solver.Fast_reject.compatible g i)
      && (i <> None || Solver.Fast_reject.compatible g i))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest [ prop_reject_sound; prop_wildcard_compatible ]

(* ------------------------------------------------------------------ *)
(* Candidate lists on a known program *)

let known_src =
  "struct A; struct B<X>; trait T {} trait U {} impl T for A {} impl T for B<A> {} \
   impl<X> T for X where X: U {} impl T for B<B<A>> {} goal A: T;"

let candidates p ty = Solver.Fast_reject.candidates p (Path.local [ "T" ]) ty

(* [A] and [B] are the two distinct rigid impl heads; the blanket impl
   is the one wildcard. *)
let test_bucket_stats () =
  let p = parse known_src in
  let heads =
    List.map Solver.Fast_reject.simplify_impl (Program.impls_of_trait p (Path.local [ "T" ]))
  in
  let rigid = List.sort_uniq compare (List.filter_map Fun.id heads) in
  Alcotest.(check (list string)) "distinct rigid heads (A, B)" [ "adt A"; "adt B" ]
    (List.map Solver.Fast_reject.simplified_to_string rigid);
  Alcotest.(check int) "wildcard (blanket) impls" 1
    (List.length (List.filter Option.is_none heads))

let test_wildcard_goal_gets_all () =
  let p = parse known_src in
  let all = candidates p (Ty.infer 0) in
  Alcotest.(check int) "inference-variable goal reaches every impl" 4 (List.length all);
  Alcotest.(check bool) "in declaration order" true
    (impl_ids all = List.sort compare (impl_ids all))

let test_param_goal_gets_blankets () =
  let p = parse known_src in
  let found = candidates p (Ty.param "Q") in
  Alcotest.(check int) "parameter-headed goal reaches only blanket impls" 1
    (List.length found)

let test_miss_goal_gets_blankets () =
  let p = parse known_src in
  let found = candidates p (Ty.ctor (Path.local [ "Nope" ]) []) in
  Alcotest.(check int) "unknown head keeps only the blanket impls" 1 (List.length found)

(* The blanket impl sits between the [B] impls in the source, and a
   [B]-headed goal must see all three in exactly that order. *)
let test_declaration_order () =
  let p = parse known_src in
  let all = impl_ids (Program.impls_of_trait p (Path.local [ "T" ])) in
  let found = impl_ids (candidates p (Ty.ctor (Path.local [ "B" ]) [ Ty.Unit ])) in
  Alcotest.(check (list int)) "B goal keeps impls 2-4 in declaration order"
    (List.tl all) found

(* ------------------------------------------------------------------ *)
(* The mega-library generator (scale bench input) *)

let test_mega_library () =
  let spec = Fuzz.Gen.generate_mega ~goals:16 ~seed:42 ~impls:300 in
  let src = Fuzz.Gen.render spec in
  (match Fuzz.Oracle.check Fuzz.Oracle.Wellformed ~source:src with
  | Fuzz.Oracle.Pass -> ()
  | Fuzz.Oracle.Fail m -> Alcotest.failf "mega wellformed: %s" m);
  let p = parse src in
  Alcotest.(check int) "requested impl population" 300 (List.length (Program.impls p));
  (* blanket (wildcard) population stays constant: two bounded blankets
     on MgT0/MgT1, one unconditional on MgAny *)
  let wilds trait_ =
    List.length
      (List.filter
         (fun impl -> Solver.Fast_reject.simplify_impl impl = None)
         (Program.impls_of_trait p (Path.local [ trait_ ])))
  in
  Alcotest.(check int) "MgT0 wildcard" 1 (wilds "MgT0");
  Alcotest.(check int) "MgAny wildcard" 1 (wilds "MgAny");
  Alcotest.(check int) "MgT2 wildcard" 0 (wilds "MgT2")

(* ------------------------------------------------------------------ *)
(* Telemetry visibility *)

let test_index_counters_in_telemetry () =
  let p = parse known_src in
  Telemetry.reset ();
  Telemetry.enable ();
  ignore (Solver.Obligations.solve_program p);
  Telemetry.disable ();
  Alcotest.(check bool)
    "solving tallies index.hits" true
    (Telemetry.counter_value "index.hits" > 0);
  Alcotest.(check bool)
    "head-mismatched impls tally index.rejects" true
    (Telemetry.counter_value "index.rejects" > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "index"
    [
      ("properties", qcheck_tests);
      ( "buckets",
        [
          Alcotest.test_case "bucket stats" `Quick test_bucket_stats;
          Alcotest.test_case "wildcard goal" `Quick test_wildcard_goal_gets_all;
          Alcotest.test_case "param goal" `Quick test_param_goal_gets_blankets;
          Alcotest.test_case "miss goal" `Quick test_miss_goal_gets_blankets;
          Alcotest.test_case "declaration order" `Quick test_declaration_order;
        ] );
      ("mega", [ Alcotest.test_case "mega library" `Quick test_mega_library ]);
      ( "telemetry",
        [ Alcotest.test_case "counters" `Quick test_index_counters_in_telemetry ] );
    ]

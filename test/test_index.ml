(** Tests for fast-reject candidate assembly ({!Solver.Fast_reject}):
    the load-bearing soundness property that a head-incompatible
    (goal, impl) pair can never unify — fast reject only ever discards
    impls unification was guaranteed to fail on — plus the candidate
    lists it keeps, in declaration order, on known programs; the head
    buckets against a linear scan, before and after edits; and the
    coherence check that skips head-incompatible impl pairs on the same
    argument. *)

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
            QCheck.Test.fail_report "rejected, but unification succeeded"))

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
  Alcotest.(check bool) "distinct rigid heads (A, B)" true
    (rigid = [ S_adt (Path.local [ "A" ]); S_adt (Path.local [ "B" ]) ]);
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
(* Head buckets ≡ a linear scan *)

(* The reference: walk every impl of the trait and keep those whose
   simplified head is compatible with the goal's. *)
let scan p trait_ self =
  let goal = Simplified.of_goal self in
  List.filter
    (fun impl ->
      match (goal, Simplified.of_impl impl) with
      | None, _ | _, None -> true
      | Some g, Some i -> g = i)
    (Program.impls_of_trait p trait_)

(* Goal self types of every head kind, wildcards included, plus the self
   type of each impl of [p] (one per distinct head, at most [limit]). *)
let goal_tys ?(limit = 400) p =
  let any_trait = Ty.trait_ref (Path.local [ "Any" ]) in
  let fixed =
    [
      Ty.unit; Ty.bool; Ty.int; Ty.uint; Ty.float; Ty.str; Ty.infer 0; Ty.param "Q";
      Ty.proj (Ty.projection (Ty.infer 1) any_trait "Out");
      Ty.ref_ Ty.unit; Ty.ref_mut Ty.int; Ty.tuple [ Ty.unit; Ty.int ];
      Ty.fn_ptr [ Ty.int ] Ty.unit; Ty.fn_item (Path.local [ "f" ]) [] Ty.unit;
      Ty.dynamic any_trait; Ty.ctor (Path.local [ "Nope" ]) [];
    ]
  in
  let seen = Hashtbl.create 64 in
  let from_impls =
    List.filter_map
      (fun (i : Decl.impl) ->
        let h = Simplified.of_goal i.impl_self in
        if Hashtbl.mem seen h then None
        else begin
          Hashtbl.add seen h ();
          Some i.impl_self
        end)
      (Program.impls p)
  in
  let stride = max 1 (List.length from_impls / limit) in
  fixed @ List.filteri (fun k _ -> k mod stride = 0) from_impls

(* [Fast_reject.candidates] returns exactly the scan's list, in order,
   for every trait of [p] and every goal of [goal_tys]. *)
let buckets_agree name p =
  let goals = goal_tys p in
  List.iter
    (fun (tr : Decl.trdecl) ->
      List.iter
        (fun self ->
          let expected = impl_ids (scan p tr.tr_path self) in
          let got = impl_ids (Solver.Fast_reject.candidates p tr.tr_path self) in
          if expected <> got then
            Alcotest.failf "%s: %s for %s: buckets [%s], scan [%s]" name
              (Path.to_string tr.tr_path)
              (Pretty.ty ~cfg:Pretty.verbose self)
              (String.concat " " (List.map string_of_int got))
              (String.concat " " (List.map string_of_int expected)))
        goals)
    (Program.traits p)

(* Blanket impls sit between same-head impls, on two traits. *)
let interleaved_src =
  {|
  struct A; struct C; struct B<X>;
  trait T {} trait U {}
  impl T for B<A> {}
  impl<X> T for X where X: U {}
  impl T for A {}
  impl U for B<C> {}
  impl T for B<C> {}
  impl<X> T for &X {}
  impl<X> T for X {}
  impl T for B<B<A>> {}
  impl T for (A, C) {}
  impl<X> U for X {}
  impl T for A {}
  goal A: T;
|}

let test_buckets_match_scan () =
  let p = parse interleaved_src in
  buckets_agree "hand-written" p;
  let b_goal = candidates p (Ty.ctor (Path.local [ "B" ]) [ Ty.unit ]) in
  Alcotest.(check int) "B goal: three B impls and two blankets" 5 (List.length b_goal);
  for iter = 0 to 299 do
    buckets_agree
      (Printf.sprintf "generated seed 11 iter %d" iter)
      (parse (Fuzz.Gen.render (Fuzz.Gen.generate ~seed:11 ~iter ~size:Fuzz.Gen.default_size)))
  done;
  List.iter
    (fun impls ->
      buckets_agree
        (Printf.sprintf "mega-%d" impls)
        (parse (Fuzz.Gen.render (Fuzz.Gen.generate_mega ~goals:16 ~seed:1 ~impls))))
    [ 1000; 10000 ]

(* Buckets built for one program never leak into an edited one. *)
let test_buckets_after_edits () =
  let p = parse interleaved_src in
  let t = Path.local [ "T" ] and b_goal = Ty.ctor (Path.local [ "B" ]) [ Ty.int ] in
  let before = impl_ids (Solver.Fast_reject.candidates p t b_goal) in
  let added =
    { (List.hd (Program.impls_of_trait p t)) with Decl.impl_id = 100; impl_self = b_goal }
  in
  let p' = Program.add_impl added p in
  let after = impl_ids (Solver.Fast_reject.candidates p' t b_goal) in
  Alcotest.(check (list int)) "added impl joins its head's bucket" (before @ [ 100 ]) after;
  Alcotest.(check (list int))
    "the program it was added to is unchanged" before
    (impl_ids (Solver.Fast_reject.candidates p t b_goal));
  buckets_agree "after add_impl" p';
  let mega = parse (Fuzz.Gen.render (Fuzz.Gen.generate_mega ~goals:16 ~seed:1 ~impls:300)) in
  buckets_agree "mega-300" mega;
  List.iter
    (fun op ->
      let edited = Fuzz.Edit.apply mega op in
      buckets_agree (Fuzz.Edit.describe op) edited)
    Fuzz.Edit.
      [
        Remove_impl 0; Dup_impl 5; Drop_where 2; Swap_impls (1, 250); Remove_goal 0;
        Dup_goal 0; Add_struct 1;
      ]

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
(* Coherence probes only head-compatible pairs *)

(* The reference: probe every pair of [Program.impls], in order. *)
let all_pairs_overlaps program =
  let icx = Solver.Infer_ctx.for_program program in
  let impls = Array.of_list (Program.impls program) in
  let out = ref [] in
  Array.iteri
    (fun i a ->
      for j = i + 1 to Array.length impls - 1 do
        match Solver.Coherence.overlap_of_pair icx a impls.(j) with
        | Some o -> out := o :: !out
        | None -> ()
      done)
    impls;
  List.rev !out

let overlaps_agree name program =
  let show (o : Solver.Coherence.overlap) =
    Printf.sprintf "%s: #%d #%d at %s" (Path.to_string o.trait_) o.impl_a.impl_id
      o.impl_b.impl_id (Pretty.ty o.witness)
  in
  Alcotest.(check (list string))
    (name ^ ": overlaps equal the all-pairs loop, in order")
    (List.map show (all_pairs_overlaps program))
    (List.map show (Solver.Coherence.check program))

let test_coherence_matches_all_pairs () =
  (* two traits interleaved; rigid groups, blanket impls on both sides *)
  let p =
    parse
      {|
      struct A; struct C; struct B<X>;
      trait T {} trait U {}
      impl<X> T for B<X> {}
      impl U for A {}
      impl T for B<A> {}
      impl<X> U for X {}
      impl T for C {}
      impl U for B<C> {}
      impl<X> T for X {}
      impl T for A {}
    |}
  in
  Alcotest.(check int) "hand-written: overlaps found" 7
    (List.length (Solver.Coherence.check p));
  overlaps_agree "hand-written" p;
  for iter = 0 to 199 do
    overlaps_agree
      (Printf.sprintf "generated seed 7 iter %d" iter)
      (parse (Fuzz.Gen.render (Fuzz.Gen.generate ~seed:7 ~iter ~size:Fuzz.Gen.default_size)))
  done;
  let mega = parse (Fuzz.Gen.render (Fuzz.Gen.generate_mega ~goals:16 ~seed:1 ~impls:1000)) in
  Alcotest.(check bool) "mega-1000 has overlaps" true (Solver.Coherence.check mega <> []);
  overlaps_agree "mega-1000" mega;
  List.iter
    (fun (e : Corpus.Harness.entry) ->
      Alcotest.(check int)
        (e.id ^ ": no E0119 overlap")
        0
        (List.length (Solver.Coherence.check (Corpus.Harness.load e))))
    Corpus.Suite.all

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

(* One bucket build per trait and program: wildcard goals need none,
   and edits that keep a trait's impls keep its buckets. *)
let test_builds_counter () =
  let p = parse known_src in
  let builds () = Telemetry.counter_value "index.builds" in
  let b_goal = Ty.ctor (Path.local [ "B" ]) [ Ty.unit ] in
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  ignore (candidates p (Ty.infer 0));
  Alcotest.(check int) "a wildcard goal builds nothing" 0 (builds ());
  ignore (candidates p b_goal);
  ignore (candidates p Ty.unit);
  Alcotest.(check int) "first rigid goal builds T's buckets, once" 1 (builds ());
  let struct_ : Decl.tydecl =
    {
      ty_path = Path.local [ "Fresh" ];
      ty_generics = Decl.no_generics;
      ty_repr = None;
      ty_span = Span.dummy;
    }
  in
  let p' = Program.with_goals [] (Program.add_type struct_ p) in
  ignore (candidates p' b_goal);
  Alcotest.(check int) "add_type and with_goals keep the buckets" 1 (builds ());
  let impl = List.hd (Program.impls_of_trait p (Path.local [ "T" ])) in
  ignore (candidates (Program.add_impl { impl with Decl.impl_id = 100 } p') b_goal);
  Alcotest.(check int) "add_impl rebuilds its trait" 2 (builds ())

(* The diesel study's reject counts: 57 of its 77 candidate impls. *)
let test_diesel_reject_counts () =
  let entry =
    List.find
      (fun (e : Corpus.Harness.entry) -> e.id = "diesel-missing-join")
      Corpus.Suite.entries
  in
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable @@ fun () ->
  ignore (Corpus.Harness.solve entry);
  Alcotest.(check (pair int int))
    "index.hits, index.rejects" (20, 57)
    (Telemetry.counter_value "index.hits", Telemetry.counter_value "index.rejects")

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
      ( "scan",
        [
          Alcotest.test_case "buckets match the scan" `Quick test_buckets_match_scan;
          Alcotest.test_case "buckets after edits" `Quick test_buckets_after_edits;
        ] );
      ("mega", [ Alcotest.test_case "mega library" `Quick test_mega_library ]);
      ( "coherence",
        [
          Alcotest.test_case "overlaps match the all-pairs loop" `Quick
            test_coherence_matches_all_pairs;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "counters" `Quick test_index_counters_in_telemetry;
          Alcotest.test_case "builds" `Quick test_builds_counter;
          Alcotest.test_case "diesel rejects" `Quick test_diesel_reject_counts;
        ] );
    ]

(** The 17-program evaluation suite (§5.2.1).

    The paper sources 25 programs from Semmler's Rust Foundation corpus
    and keeps 17 after removing unusable ones.  We reconstruct a suite of
    the same size and composition — Diesel-, Bevy-, and Axum-shaped
    failures, the synthetic brew/space mirrors, and std-flavoured
    iterator/orphan errors — each annotated with the trait bound that is
    the ground-truth root cause of the error. *)

let entries : Harness.entry list =
  [
    {
      id = "diesel-missing-join";
      title = "A missing table join";
      library = "diesel_lite";
      kind = Harness.Real;
      description =
        "Selects users::id and posts::id but never joins posts, so the \
         filter expression references a table absent from the from clause \
         (§2.1).";
      source = Diesel_lite.missing_join;
      root_cause = "<UsersTable as AppearsInFromClause<PostsTable>>::Count == Once";
      fix_hint = "inner_join posts::table before filtering on posts::id";
    };
    {
      id = "diesel-wrong-table-filter";
      title = "Filtering on a column of an unjoined table";
      library = "diesel_lite";
      kind = Harness.Real;
      description =
        "A posts-only query filters on users::id; the users table never \
         appears in the from clause.";
      source = Diesel_lite.wrong_table_filter;
      root_cause = "<PostsTable as AppearsInFromClause<UsersTable>>::Count == Once";
      fix_hint = "join users::table or filter on a posts column";
    };
    {
      id = "diesel-non-expression";
      title = "A table used as a column";
      library = "diesel_lite";
      kind = Harness.Real;
      description = "An eq() comparison against a table marker rather than a column.";
      source = Diesel_lite.non_expression_operand;
      root_cause = "UsersTable: Expression";
      fix_hint = "compare against a column such as users::id";
    };
    {
      id = "ast-overflow";
      title = "Accidental infinite recursion";
      library = "std";
      kind = Harness.Synthetic;
      description =
        "A blanket AstAssocs impl whose where-clause cycles through \
         AssocData back to itself (§2.2, E0275).";
      source = Motivating.ast_overflow;
      root_cause = "EmptyNode: AstAssocs";
      fix_hint = "replace the blanket impl with a concrete impl for EmptyNode";
    };
    {
      id = "bevy-errant-param";
      title = "An errant function parameter";
      library = "bevy_lite";
      kind = Harness.Real;
      description =
        "A system takes Timer instead of ResMut<Timer>; the diagnostic \
         stops at the IntoSystem branch point (§2.3).";
      source = Bevy_lite.errant_param;
      root_cause = "Timer: SystemParam";
      fix_hint = "wrap the parameter: mut timer: ResMut<Timer>";
    };
    {
      id = "bevy-assets-param";
      title = "Assets<Mesh> used directly as a parameter";
      library = "bevy_lite";
      kind = Harness.Real;
      description =
        "The user-study Bevy task: Assets<Mesh> is not a SystemParam; it \
         must be accessed through ResMut<Assets<Mesh>>.";
      source = Bevy_lite.assets_param;
      root_cause = "Assets<Mesh>: SystemParam";
      fix_hint = "take meshes: ResMut<Assets<Mesh>>";
    };
    {
      id = "bevy-missing-derive";
      title = "A resource without #[derive(Resource)]";
      library = "bevy_lite";
      kind = Harness.Real;
      description = "Res<Score> is fine, but Score itself never implements Resource.";
      source = Bevy_lite.missing_derive;
      root_cause = "Score: Resource";
      fix_hint = "add #[derive(Resource)] to Score";
    };
    {
      id = "bevy-bad-query";
      title = "Querying a non-QueryData component";
      library = "bevy_lite";
      kind = Harness.Real;
      description = "Query<Velocity> where Velocity does not implement QueryData.";
      source = Bevy_lite.bad_query;
      root_cause = "Velocity: QueryData";
      fix_hint = "derive Component/QueryData for Velocity";
    };
    {
      id = "axum-bad-return";
      title = "A handler returning a non-response";
      library = "axum_lite";
      kind = Harness.Real;
      description = "The handler returns a bare User; User is not IntoResponse.";
      source = Axum_lite.bad_return;
      root_cause = "User: IntoResponse";
      fix_hint = "return Json<User> instead of User";
    };
    {
      id = "axum-body-first";
      title = "Body extractor before a parts extractor";
      library = "axum_lite";
      kind = Harness.Real;
      description =
        "Json<CreateUser> consumes the body so it must come last; placed \
         first it would need FromRequestParts.";
      source = Axum_lite.body_extractor_first;
      root_cause = "Json<CreateUser>: FromRequestParts<()>";
      fix_hint = "reorder the parameters: (UrlPath<usize>, Json<CreateUser>)";
    };
    {
      id = "axum-missing-deserialize";
      title = "Extracting Json of a non-Deserialize type";
      library = "axum_lite";
      kind = Harness.Real;
      description = "Json<LoginForm> requires LoginForm: Deserialize.";
      source = Axum_lite.missing_deserialize;
      root_cause = "LoginForm: Deserialize";
      fix_hint = "add #[derive(Deserialize)] to LoginForm";
    };
    {
      id = "brew-clashing-recipe";
      title = "A recipe of clashing ingredients";
      library = "brew";
      kind = Harness.Synthetic;
      description =
        "Sunflower and nightshade have Affinity::Compat = Clash; mirrors \
         the Diesel projection-mismatch shape.";
      source = Brew.clashing_recipe;
      root_cause =
        "<Infusion<Sunflower> as Affinity<Infusion<Nightshade>>>::Compat == Compat";
      fix_hint = "brew sunflower with chamomile instead";
    };
    {
      id = "brew-not-a-plant";
      title = "Brewing a mineral";
      library = "brew";
      kind = Harness.Synthetic;
      description = "Granite is not a Plant, so Infusion<Granite> is not an Ingredient.";
      source = Brew.not_a_plant;
      root_cause = "Granite: Plant";
      fix_hint = "infuse a plant, or implement Plant for Granite";
    };
    {
      id = "space-raw-payload";
      title = "A raw payload as mission equipment";
      library = "space";
      kind = Harness.Synthetic;
      description =
        "The route function takes Supplies instead of Cargo<Supplies>; \
         mirrors the Bevy errant-parameter branch point.";
      source = Space.raw_payload;
      root_cause = "Supplies: Equipment";
      fix_hint = "wrap the parameter: Cargo<Supplies>";
    };
    {
      id = "space-bad-fuel";
      title = "Fuel of an unregistered grade";
      library = "space";
      kind = Harness.Synthetic;
      description = "FuelTank<Kerosene> requires Kerosene: Grade.";
      source = Space.bad_fuel;
      root_cause = "Kerosene: Grade";
      fix_hint = "implement Grade for Kerosene or switch to Hydrazine";
    };
    {
      id = "iter-map-wrong-input";
      title = "Mapping with the wrong input type";
      library = "std";
      kind = Harness.Synthetic;
      description =
        "Counter yields i32 but the mapped function takes String; the \
         failure is inside the Fn obligation of Map's Iterator impl.";
      source = Motivating.map_wrong_input;
      root_cause = "fn[stringify]: Fn<(<Counter as Iterator>::Item,)>";
      fix_hint = "map with a function of type fn(i32) -> String";
    };
    {
      id = "orphan-nested";
      title = "An external type needing an external trait";
      library = "std";
      kind = Harness.Synthetic;
      description =
        "serde::Serialize is required for chrono::DateTime three hops \
         below the goal; the orphan rule forbids adding the impl locally.";
      source = Motivating.orphan_nested;
      root_cause = "DateTime: Serialize";
      fix_hint = "wrap DateTime in a local newtype with its own Serialize impl";
    };
  ]

let size = List.length entries

(** Extended corpus: error classes beyond the paper's dataset, covering
    the other great generators of trait errors in the wild — serde derive
    chains and async [Future]/[Send] bounds.  Kept out of the ranked
    17-program suite (paper fidelity) but exercised by the tests and
    available through the CLI. *)
let extended : Harness.entry list =
  [
    {
      id = "serde-missing-field-impl";
      title = "A non-serializable field, five requirements deep";
      library = "serde_lite";
      kind = Harness.Real;
      description =
        "Vec<User> -> User -> Profile -> Option<Session> -> Session: the \
         chain bottoms out at Session's raw OS handle.";
      source = Serde_lite.missing_field_impl;
      root_cause = "RawFd: Serialize";
      fix_hint = "#[serde(skip)] the Session field, or don't store RawFd";
    };
    {
      id = "serde-bad-map-key";
      title = "A HashMap key without Serialize";
      library = "serde_lite";
      kind = Harness.Real;
      description = "HashMap<Ip, _> requires Ip: Serialize.";
      source = Serde_lite.bad_map_key;
      root_cause = "Ip: Serialize";
      fix_hint = "derive Serialize for Ip";
    };
    {
      id = "serde-missing-deserialize";
      title = "Serialize without Deserialize";
      library = "serde_lite";
      kind = Harness.Real;
      description = "the round-trip asymmetry: Config only derives half.";
      source = Serde_lite.missing_deserialize;
      root_cause = "Config: Deserialize";
      fix_hint = "add #[derive(Deserialize)] to Config";
    };
    {
      id = "futures-rc-across-await";
      title = "future cannot be sent between threads safely";
      library = "futures_lite";
      kind = Harness.Real;
      description =
        "an Rc held across an await makes the async block !Send, which \
         breaks spawn's Spawnable bound.";
      source = Futures_lite.rc_across_await;
      root_cause = "Rc<Vec<String>>: Send";
      fix_hint = "hold an Arc instead of an Rc across the await";
    };
    {
      id = "futures-map-wrong-output";
      title = "Mapping a future with the wrong input type";
      library = "futures_lite";
      kind = Harness.Real;
      description = "Ready<i32>'s output is i32 but the closure takes String.";
      source = Futures_lite.map_wrong_output;
      root_cause = "fn[summarize]: Fn<(<Ready<i32> as Future>::Output,)>";
      fix_hint = "map with a function of type fn(i32) -> _";
    };
    {
      id = "futures-and-then-not-future";
      title = "and_then with a non-future continuation";
      library = "futures_lite";
      kind = Harness.Real;
      description = "the continuation returns usize, which is not a Future.";
      source = Futures_lite.and_then_not_future;
      root_cause = "usize: Future";
      fix_hint = "return Ready<usize> (or use .map instead of .and_then)";
    };
  ]

(** Well-typed counterparts of the extended corpus. *)
let extended_ok : Harness.entry list =
  [
    {
      id = "bevy-method-call-body";
      title = "add_systems as a real method call";
      library = "bevy_lite";
      kind = Harness.Real;
      description =
        "the fully end-to-end §2.3: no goal annotations; the obligation is \
         generated by type-checking app.add_systems(Update, run_timer_bad). \
         Checked by test_corpus via the typeck library (the one good and \
         one bad registration are both in fn main).";
      source = Bevy_lite.errant_param_method_call;
      root_cause = "";
      fix_hint = "wrap the parameter: ResMut<Timer>";
    };
    {
      id = "serde-fixed-model";
      title = "The #[serde(skip)] fix";
      library = "serde_lite";
      kind = Harness.Real;
      description = "missing-field-impl after the fix; must type-check.";
      source = Serde_lite.fixed_model;
      root_cause = "";
      fix_hint = "";
    };
    {
      id = "futures-arc-across-await";
      title = "Arc across the await";
      library = "futures_lite";
      kind = Harness.Real;
      description = "rc-across-await after the fix; must type-check.";
      source = Futures_lite.arc_across_await;
      root_cause = "";
      fix_hint = "";
    };
    {
      id = "futures-ok-chain";
      title = "A correct combinator chain";
      library = "futures_lite";
      kind = Harness.Real;
      description = "well-typed Map/AndThen composition; must type-check.";
      source = Futures_lite.ok_chain;
      root_cause = "";
      fix_hint = "";
    };
  ]

(** The paper starts from 25 programs and removes 8 (§5.2.1): "2 for not
    having a clear program intention and error cause, 2 that are
    well-typed but fail to compile due to bugs in the Rust compiler, 2
    for not being actual trait errors, and 2 that crash the Rust
    compiler."  We reconstruct the same removal categories; the test
    suite asserts each exhibits its reason (and hence does not belong in
    the ranked evaluation). *)
type removal_reason =
  | No_clear_intention  (** ambiguous goal; no single blameable root cause *)
  | Compiler_limitation  (** should type-check; rejected only by engine limits *)
  | Not_a_trait_error  (** fails before trait solving (name resolution) *)
  | Crashes_compiler  (** blows the recursion budget however high *)

let removed : (Harness.entry * removal_reason) list =
  let mk id title source reason =
    ( {
        Harness.id;
        title;
        library = "std";
        kind = Harness.Synthetic;
        description = "removed from the ranked suite (§5.2.1)";
        source;
        root_cause = "";
        fix_hint = "";
      },
      reason )
  in
  [
    (* no clear intention: the goal is ambiguous by construction — two
       impls both apply and nothing says which the author wanted *)
    mk "removed-ambiguous-intent-1" "Ambiguous marker intent"
      {|
        struct A; struct M1; struct M2;
        trait T<M> {}
        impl T<M1> for A {}
        impl T<M2> for A {}
        goal A: T<_>;
      |}
      No_clear_intention;
    mk "removed-ambiguous-intent-2" "Underdetermined receiver"
      {|
        struct A; struct B;
        trait T {}
        impl T for A {}
        impl T for B {}
        goal _: T;
      |}
      No_clear_intention;
    (* engine limitation: these hold under a coinductive reading (as
       auto-trait cycles do in rustc), but the inductive cycle rule —
       ours, and rustc's for ordinary traits — rejects them *)
    mk "removed-compiler-bug-1" "Coinductive-only self-reference"
      {|
        struct A; struct W<X>;
        trait T {}
        impl T for A {}
        impl<X> T for W<X> where W<X>: T {}
        goal W<A>: T;
      |}
      Compiler_limitation;
    mk "removed-compiler-bug-2" "Mutually coinductive traits"
      {|
        struct L; struct R;
        trait T {} trait U {}
        impl T for L where R: U {}
        impl U for R where L: T {}
        goal L: T;
      |}
      Compiler_limitation;
    (* not trait errors: these fail in name resolution, before any trait
       obligation exists *)
    mk "removed-not-trait-1" "Misspelled trait"
      "struct A; trait Display {} goal A: Dispaly;" Not_a_trait_error;
    mk "removed-not-trait-2" "Wrong arity, caught syntactically"
      "struct A; trait T<X> {} goal A: T<i32, i32>;" Not_a_trait_error;
    (* crashes: unbounded growth that exhausts any recursion budget *)
    mk "removed-crash-1" "Ever-growing obligation"
      {|
        struct A; struct W<X>;
        trait T {}
        impl<X> T for W<X> where W<W<X>>: T {}
        goal W<A>: T;
      |}
      Crashes_compiler;
    mk "removed-crash-2" "Mutually growing obligations"
      {|
        struct A; struct L<X>; struct R<X>;
        trait T {} trait U {}
        impl<X> T for L<X> where R<L<X>>: U {}
        impl<X> U for R<X> where L<R<X>>: T {}
        goal L<A>: T;
      |}
      Crashes_compiler;
  ]

(** Programs kept out of the ranked suite but used by tests and examples:
    well-typed baselines and extra faults. *)
let extras : Harness.entry list =
  [
    {
      id = "diesel-with-join";
      title = "The corrected join query";
      library = "diesel_lite";
      kind = Harness.Real;
      description = "missing-join after the fix; must type-check.";
      source = Diesel_lite.with_join;
      root_cause = "";
      fix_hint = "";
    };
    {
      id = "bevy-correct-param";
      title = "The corrected Bevy system";
      library = "bevy_lite";
      kind = Harness.Real;
      description = "errant-param after the fix; must type-check.";
      source = Bevy_lite.correct_param;
      root_cause = "";
      fix_hint = "";
    };
    {
      id = "axum-ok-handler";
      title = "A correct Axum handler";
      library = "axum_lite";
      kind = Harness.Real;
      description = "well-typed handler; must type-check.";
      source = Axum_lite.ok_handler;
      root_cause = "";
      fix_hint = "";
    };
    {
      id = "brew-ok";
      title = "A compatible brew";
      library = "brew";
      kind = Harness.Synthetic;
      description = "well-typed recipe; must type-check.";
      source = Brew.ok_brew;
      root_cause = "";
      fix_hint = "";
    };
    {
      id = "space-ok";
      title = "A valid flight plan";
      library = "space";
      kind = Harness.Synthetic;
      description = "well-typed mission; must type-check.";
      source = Space.ok_plan;
      root_cause = "";
      fix_hint = "";
    };
    {
      id = "ast-fixed";
      title = "The fixed AST recursion";
      library = "std";
      kind = Harness.Synthetic;
      description = "ast-overflow after the fix; must type-check.";
      source = Motivating.ast_fixed;
      root_cause = "";
      fix_hint = "";
    };
    {
      id = "iter-filter-not-bool";
      title = "Filtering with a non-bool predicate";
      library = "std";
      kind = Harness.Synthetic;
      description = "extra fault used in tests.";
      source = Motivating.filter_not_bool;
      root_cause = "<fn[classify] as Fn<(<Counter as Iterator>::Item,)>>::Output == bool";
      fix_hint = "return bool from the predicate";
    };
    {
      id = "orphan-external";
      title = "Direct orphan failure";
      library = "std";
      kind = Harness.Synthetic;
      description = "extra fault used in tests.";
      source = Motivating.orphan_external;
      root_cause = "DateTime: Serialize";
      fix_hint = "newtype wrapper";
    };
  ]

(** Every bundled program, 35 in suite order: the ranked suite, the
    extended corpus, the extras and the extended corpus's well-typed
    counterparts. *)
let all = entries @ extended @ extras @ extended_ok

let find id = List.find_opt (fun (e : Harness.entry) -> e.id = id) all

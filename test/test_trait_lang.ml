(** Tests for the L_TRAIT front end: paths, spans, types, substitution,
    pretty-printing, lexer, parser, and name resolution. *)

open Trait_lang

let check = Alcotest.check
let check_str = check Alcotest.string
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int

(* ------------------------------------------------------------------ *)
(* Paths *)

let test_path_basics () =
  let p = Path.external_ "diesel" [ "query_builder"; "SelectStatement" ] in
  check_str "fq" "diesel::query_builder::SelectStatement" (Path.to_string p);
  check_str "name" "SelectStatement" (Path.name p);
  check_bool "not local" false (Path.is_local p);
  let l = Path.local [ "Timer" ] in
  check_str "local no prefix" "Timer" (Path.to_string l);
  check_str "local explicit" "crate::Timer" (Path.to_string ~explicit_crate:true l);
  check_bool "is local" true (Path.is_local l)

let test_path_equal_compare () =
  let a = Path.local [ "m"; "X" ] and b = Path.local [ "m"; "X" ] in
  check_bool "equal" true (Path.equal a b);
  check_bool "same compare" true (Path.compare a b = 0);
  let c = Path.external_ "c" [ "m"; "X" ] in
  check_bool "crate distinguishes" false (Path.equal a c);
  check_bool "set works" true (Path.Set.cardinal (Path.Set.of_list [ a; b; c ]) = 2)

let test_path_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Path.v: empty segment list") (fun () ->
      ignore (Path.local []))

(* ------------------------------------------------------------------ *)
(* Spans *)

let test_span_basics () =
  let s = Span.v ~file:"a.rs" ~start_line:3 ~start_col:7 ~stop_line:3 ~stop_col:12 in
  check_str "to_string" "a.rs:3:7" (Span.to_string s);
  check_bool "not dummy" false (Span.is_dummy s);
  check_bool "dummy" true (Span.is_dummy Span.dummy);
  check_str "dummy str" "<builtin>" (Span.to_string Span.dummy)

let test_span_union () =
  let a = Span.v ~file:"a.rs" ~start_line:3 ~start_col:1 ~stop_line:3 ~stop_col:5 in
  let b = Span.v ~file:"a.rs" ~start_line:5 ~start_col:2 ~stop_line:6 ~stop_col:1 in
  let u = Span.union a b in
  check_int "start" 3 (Span.start_line u);
  check_bool "dummy absorbs left" true (Span.equal (Span.union Span.dummy b) b);
  check_bool "dummy absorbs right" true (Span.equal (Span.union a Span.dummy) a)

(* ------------------------------------------------------------------ *)
(* Types *)

let timer = Ty.ctor (Path.local [ "Timer" ]) []
let resmut t = Ty.ctor (Path.external_ "bevy" [ "ResMut" ]) [ t ]

let test_ty_equal () =
  check_bool "ctor equal" true (Ty.equal (resmut timer) (resmut timer));
  check_bool "args differ" false (Ty.equal (resmut timer) (resmut Ty.int));
  check_bool "tuple1 /= bare" false (Ty.equal (Ty.tuple [ timer ]) timer);
  check_bool "unit = empty tuple" true (Ty.equal (Ty.tuple []) Ty.Unit);
  check_bool "infer by id" true (Ty.equal (Ty.infer 3) (Ty.infer 3));
  check_bool "infer ids differ" false (Ty.equal (Ty.infer 3) (Ty.infer 4))

let test_ty_size_and_vars () =
  let t = Ty.tuple [ resmut (Ty.infer 0); Ty.ref_ (Ty.param "A") ] in
  check_int "size" 5 (Ty.size t);
  check (Alcotest.list Alcotest.int) "infer vars" [ 0 ] (Ty.infer_vars t);
  check (Alcotest.list Alcotest.string) "params" [ "A" ] (Ty.params t);
  check_bool "has infer" true (Ty.has_infer t);
  check_bool "mentions 0" true (Ty.mentions_infer 0 t);
  check_bool "not mentions 1" false (Ty.mentions_infer 1 t)

let test_ty_heads () =
  check_bool "ctor head" true (Ty.head_path (resmut timer) <> None);
  check_bool "tuple no head" true (Ty.head_path (Ty.tuple [ timer ]) = None);
  check_bool "fn-like fnptr" true (Ty.is_fn_like (Ty.fn_ptr [ timer ] Ty.Unit));
  check_bool "fn-like item" true
    (Ty.is_fn_like (Ty.fn_item (Path.local [ "f" ]) [ timer ] Ty.Unit));
  check_bool "ctor not fn-like" false (Ty.is_fn_like timer);
  check_bool "head crate external" true
    (Ty.head_crate (resmut timer) = Some (Path.External "bevy"));
  check_bool "head crate local" true (Ty.head_crate timer = Some Path.Local);
  check_bool "no head crate" true (Ty.head_crate Ty.int = None)

(* ------------------------------------------------------------------ *)
(* Substitution *)

let test_subst_ty () =
  let s = Subst.of_list [ ("T", timer) ] in
  check_bool "param replaced" true (Ty.equal (Subst.ty s (Ty.param "T")) timer);
  check_bool "other param kept" true (Ty.equal (Subst.ty s (Ty.param "U")) (Ty.param "U"));
  check_bool "nested" true (Ty.equal (Subst.ty s (resmut (Ty.param "T"))) (resmut timer))

let test_subst_predicate () =
  let s = Subst.of_list [ ("T", timer) ] in
  let tr = Ty.trait_ref ~args:[ Ty.param "T" ] (Path.local [ "Tr" ]) in
  let p = Predicate.trait_ (Ty.param "T") tr in
  match Subst.predicate s p with
  | Predicate.Trait { self_ty; trait_ref } ->
      check_bool "self" true (Ty.equal self_ty timer);
      check_bool "arg" true (Ty.equal_args trait_ref.args [ Ty.Ty timer ])
  | _ -> Alcotest.fail "expected trait predicate"

let test_subst_regions () =
  let s = Subst.of_list ~regions:[ ("a", Region.Static) ] [] in
  match Subst.ty s (Ty.ref_ ~region:(Region.named "a") Ty.int) with
  | Ty.Ref (Region.Static, Ty.Int) -> ()
  | _ -> Alcotest.fail "region not substituted"

(* ------------------------------------------------------------------ *)
(* Pretty printing *)

let select_statement =
  Ty.ctor
    (Path.external_ "diesel" [ "query_builder"; "SelectStatement" ])
    [ Ty.ctor (Path.external_ "diesel" [ "FromClause" ]) [ timer ] ]

let test_pretty_short_paths () =
  check_str "short" "SelectStatement<FromClause<Timer>>" (Pretty.ty select_statement)

let test_pretty_qualified () =
  check_str "fq"
    "diesel::query_builder::SelectStatement<diesel::FromClause<Timer>>"
    (Pretty.ty ~cfg:Pretty.verbose select_statement)

let test_pretty_ellipsis () =
  let cfg = { Pretty.default with max_depth = 1 } in
  check_str "elided" "SelectStatement<FromClause<...>>" (Pretty.ty ~cfg select_statement);
  let cfg0 = { Pretty.default with max_depth = 0 } in
  check_str "elided at top" "SelectStatement<...>" (Pretty.ty ~cfg:cfg0 select_statement)

let test_pretty_special_types () =
  check_str "unit" "()" (Pretty.ty Ty.Unit);
  check_str "1-tuple" "(Timer,)" (Pretty.ty (Ty.tuple [ timer ]));
  check_str "2-tuple" "(Timer, i32)" (Pretty.ty (Ty.tuple [ timer; Ty.int ]));
  check_str "fn ptr" "fn(Timer) -> i32" (Pretty.ty (Ty.fn_ptr [ timer ] Ty.int));
  check_str "fn ptr unit ret" "fn(Timer)" (Pretty.ty (Ty.fn_ptr [ timer ] Ty.unit));
  check_str "fn item" "fn(Timer) {run_timer}"
    (Pretty.ty (Ty.fn_item (Path.local [ "run_timer" ]) [ timer ] Ty.unit));
  check_str "infer short" "_" (Pretty.ty (Ty.infer 7));
  check_str "infer verbose" "?7" (Pretty.ty ~cfg:Pretty.verbose (Ty.infer 7));
  check_str "ref" "&i32" (Pretty.ty (Ty.ref_ Ty.int));
  check_str "ref mut" "&mut i32" (Pretty.ty (Ty.ref_mut Ty.int));
  check_str "dyn" "dyn Tr" (Pretty.ty (Ty.dynamic (Ty.trait_ref (Path.local [ "Tr" ]))))

let test_pretty_projection () =
  let proj =
    Ty.projection timer
      (Ty.trait_ref ~args:[ Ty.int ] (Path.external_ "std" [ "Iterator" ]))
      "Item"
  in
  check_str "projection" "<Timer as Iterator<i32>>::Item" (Pretty.projection proj)

let test_pretty_predicate () =
  let tr = Ty.trait_ref ~args:[] (Path.external_ "bevy" [ "SystemParam" ]) in
  check_str "trait bound" "Timer: SystemParam" (Pretty.predicate (Predicate.trait_ timer tr));
  check_str "outlives" "Timer: 'static"
    (Pretty.predicate (Predicate.outlives timer Region.Static))

(* ------------------------------------------------------------------ *)
(* Lexer *)

let tokens_of src =
  Lexer.tokenize ~file:"t.rs" src |> List.map (fun (s : Lexer.spanned) -> s.tok)

let test_lexer_basic () =
  check_int "count" 7 (List.length (tokens_of "struct Foo<T>;"));
  (match tokens_of "impl Foo for Bar {}" with
  | [ Token.KW_IMPL; Token.IDENT "Foo"; Token.KW_FOR; Token.IDENT "Bar"; Token.LBRACE;
      Token.RBRACE; Token.EOF ] ->
      ()
  | _ -> Alcotest.fail "unexpected tokens");
  match tokens_of "'a 'static" with
  | [ Token.LIFETIME "a"; Token.LIFETIME "static"; Token.EOF ] -> ()
  | _ -> Alcotest.fail "lifetimes"

let test_lexer_comments () =
  check_int "line comment" 1 (List.length (tokens_of "// all comment\n"));
  check_int "block comment" 1 (List.length (tokens_of "/* x /* not nested */"));
  match tokens_of "a // trailing\nb" with
  | [ Token.IDENT "a"; Token.IDENT "b"; Token.EOF ] -> ()
  | _ -> Alcotest.fail "comment should separate"

let test_lexer_compound_tokens () =
  (match tokens_of ":: : == = ->" with
  | [ Token.COLONCOLON; Token.COLON; Token.EQEQ; Token.EQ; Token.ARROW; Token.EOF ] -> ()
  | _ -> Alcotest.fail "punct");
  match tokens_of {|"a \"quoted\" b"|} with
  | [ Token.STRING {|a "quoted" b|}; Token.EOF ] -> ()
  | _ -> Alcotest.fail "string escapes"

let test_lexer_spans () =
  let toks = Lexer.tokenize ~file:"t.rs" "a\n  bb" in
  match toks with
  | [ a; b; _eof ] ->
      check_str "a span" "t.rs:1:1" (Span.to_string a.span);
      check_str "b span" "t.rs:2:3" (Span.to_string b.span)
  | _ -> Alcotest.fail "token count"

let test_lexer_errors () =
  check_bool "bad char" true
    (try ignore (tokens_of "struct @;"); false with Lexer.Error _ -> true);
  check_bool "unterminated string" true
    (try ignore (tokens_of {|"abc|}); false with Lexer.Error _ -> true);
  check_bool "unterminated comment" true
    (try ignore (tokens_of "/* abc"); false with Lexer.Error _ -> true)

let test_lexer_int_out_of_range () =
  match tokens_of "fn f() { 99999999999999999999999; }" with
  | _ -> Alcotest.fail "an oversized literal must not lex"
  | exception Lexer.Error e ->
      check_str "message" "integer literal out of range" e.message;
      check_str "span covers the literal" "1:10-1:33"
        (Printf.sprintf "%d:%d-%d:%d" e.span.start.line e.span.start.col e.span.stop.line
           e.span.stop.col)

(* ------------------------------------------------------------------ *)
(* The parser pulls tokens from the lexer one at a time *)

let parse_error src =
  match Parser.parse ~file:"t.rs" src with
  | _ -> Alcotest.failf "%S should not parse" src
  | exception Parser.Error e ->
      Printf.sprintf "%d:%d %s" e.span.start.line e.span.start.col e.message

(* The file is lexed to the end before a parse error is reported, so a
   later lexer error wins over an earlier parse error. *)
let test_stream_lexer_error_wins () =
  check_str "bad character" "1:20 unexpected character '@'"
    (parse_error "struct Foo<T; impl @");
  check_str "unterminated comment" "1:21 unterminated block comment"
    (parse_error "struct Foo<T; /* abc");
  check_str "no lexer error: the parse error stands" "1:13 expected '>' but found ';'"
    (parse_error "struct Foo<T; impl")

let test_stream_error_at_eof () =
  check_str "span at end of input" "1:6 expected a type, found end of input"
    (parse_error "fn f(")

let test_stream_peek2_at_eof () =
  let st = Parser.make (Lexer.make ~file:"t.rs" "a") in
  check_bool "current" true (Parser.peek_tok st = Token.IDENT "a");
  check_bool "lookahead is EOF" true (Parser.peek_tok2 st = Token.EOF);
  check_str "lookahead leaves the current span" "t.rs:1:1" (Span.to_string (Parser.cur_span st));
  Parser.advance st;
  check_bool "at EOF" true (Parser.peek_tok st = Token.EOF);
  check_bool "peek2 at EOF" true (Parser.peek_tok2 st = Token.EOF);
  Parser.advance st;
  check_bool "EOF forever" true (Parser.peek_tok st = Token.EOF);
  check_str "EOF span" "t.rs:1:2" (Span.to_string (Parser.cur_span st))

let test_stream_source_order () =
  let p =
    Resolve.program_of_string ~file:"t.rs"
      "struct A; struct B; trait T {} trait U {} impl T for A {} goal A: T; impl U for A {} \
       impl T for B {} goal B: U; impl U for B {} goal A: U;"
  in
  let selves path =
    List.map
      (fun (i : Decl.impl) -> Pretty.ty i.impl_self)
      (Program.impls_of_trait p (Path.local [ path ]))
  in
  check Alcotest.(list string) "impls of T" [ "A"; "B" ] (selves "T");
  check Alcotest.(list string) "impls of U" [ "A"; "B" ] (selves "U");
  check Alcotest.(list int) "impls" [ 0; 1; 2; 3 ]
    (List.map (fun (i : Decl.impl) -> i.impl_id) (Program.impls p));
  check Alcotest.(list string) "goals" [ "A: T"; "B: U"; "A: U" ]
    (List.map (fun (g : Program.goal) -> Pretty.predicate g.goal_pred) (Program.goals p))

(* ------------------------------------------------------------------ *)
(* Parser + resolver, via full programs *)

let resolve src = Resolve.program_of_string ~file:"t.rs" src

let test_resolve_struct_and_goal () =
  let p = resolve "struct A; trait T {} impl T for A {} goal A: T;" in
  check_int "types" 1 (List.length (Program.types p));
  check_int "traits" 1 (List.length (Program.traits p));
  check_int "impls" 1 (List.length (Program.impls p));
  check_int "goals" 1 (List.length (Program.goals p))

let test_resolve_crate_provenance () =
  let p = resolve "extern crate dep { struct X; trait T {} } struct Y;" in
  let x = Option.get (Program.find_type p (Path.external_ "dep" [ "X" ])) in
  check_bool "external" true (Path.crate x.ty_path = Path.External "dep");
  let y = Option.get (Program.find_type p (Path.local [ "Y" ])) in
  check_bool "local" true (Path.is_local y.ty_path)

let test_resolve_modules () =
  let p = resolve "mod users { mod cols { struct Id; } } trait T {} goal Id: T;" in
  check_bool "nested path" true
    (Program.find_type p (Path.local [ "users"; "cols"; "Id" ]) <> None)

let test_resolve_qualified_reference () =
  let p =
    resolve
      "extern crate a { struct X; } extern crate b { struct X; } trait T {} goal a::X: T;"
  in
  match (List.hd (Program.goals p)).goal_pred with
  | Predicate.Trait { self_ty = Ty.Ctor (path, _); _ } ->
      check_str "picked a::X" "a::X" (Path.to_string path)
  | _ -> Alcotest.fail "goal shape"

let test_resolve_ambiguous_is_error () =
  check_bool "ambiguous" true
    (try
       ignore
         (resolve
            "extern crate a { struct X; } extern crate b { struct X; } trait T {} goal X: T;");
       false
     with Resolve.Error (Resolve.Ambiguous_name _) -> true)

let test_resolve_unknown_name () =
  check_bool "unknown" true
    (try ignore (resolve "trait T {} goal Missing: T;"); false
     with Resolve.Error (Resolve.Unknown_name ("Missing", _)) -> true)

let test_resolve_arity_errors () =
  check_bool "struct arity" true
    (try ignore (resolve "struct A<T>; trait T2 {} goal A: T2;"); false
     with Resolve.Error (Resolve.Arity_mismatch _) -> true);
  check_bool "trait arity" true
    (try ignore (resolve "struct A; trait T<X> {} goal A: T;"); false
     with Resolve.Error (Resolve.Arity_mismatch _) -> true)

let test_resolve_not_a_trait () =
  check_bool "struct in bound position" true
    (try ignore (resolve "struct A; struct B; goal A: B;"); false
     with Resolve.Error (Resolve.Not_a_trait _) -> true)

let test_resolve_duplicate () =
  check_bool "dup struct" true
    (try ignore (resolve "struct A; struct A;"); false
     with Resolve.Error (Resolve.Duplicate_decl _) -> true)

let test_resolve_self_in_impl () =
  (* Self in an impl where-clause refers to the impl's self type *)
  let p = resolve "struct A; trait T {} trait U {} impl T for A where Self: U {}" in
  let impl = List.hd (Program.impls p) in
  match impl.impl_generics.where_clauses with
  | [ Predicate.Trait { self_ty; _ } ] ->
      check_bool "Self = A" true (Ty.equal self_ty (Ty.ctor (Path.local [ "A" ]) []))
  | _ -> Alcotest.fail "where clause shape"

let test_resolve_self_outside_impl_errors () =
  check_bool "self at top" true
    (try ignore (resolve "trait T {} goal Self: T;"); false
     with Resolve.Error (Resolve.Self_outside_impl _) -> true)

let test_resolve_binding_desugar () =
  (* T: Iterator<Item = i32> becomes a trait bound + a projection *)
  let p =
    resolve
      "struct C; trait Iterator { type Item; } struct W<I> where I: Iterator<Item = i32>;"
  in
  let w = Option.get (Program.find_type p (Path.local [ "W" ])) in
  check_int "two predicates" 2 (List.length w.ty_generics.where_clauses);
  match w.ty_generics.where_clauses with
  | [ Predicate.Trait _; Predicate.Projection { term = Ty.Int; _ } ] -> ()
  | _ -> Alcotest.fail "desugar shape"

let test_resolve_compound_bounds () =
  let p = resolve "struct A; trait T {} trait U {} struct W<X> where X: T + U;" in
  let w = Option.get (Program.find_type p (Path.local [ "W" ])) in
  check_int "two bounds" 2 (List.length w.ty_generics.where_clauses)

let test_resolve_supertraits () =
  let p = resolve "trait Sized {} trait T: Sized {}" in
  let t = Option.get (Program.find_trait p (Path.local [ "T" ])) in
  check_int "one supertrait" 1 (List.length t.tr_supertraits)

let test_resolve_newtype () =
  let p = resolve "newtype Meters = i32;" in
  let m = Option.get (Program.find_type p (Path.local [ "Meters" ])) in
  check_bool "repr" true (m.ty_repr = Some Ty.Int)

let test_resolve_fn_items () =
  let p = resolve "struct Timer; fn run(Timer) -> i32; trait T {} goal fn[run]: T;" in
  match (List.hd (Program.goals p)).goal_pred with
  | Predicate.Trait { self_ty = Ty.FnItem (path, [ _ ], Ty.Int); _ } ->
      check_str "fn path" "run" (Path.name path)
  | _ -> Alcotest.fail "fn item goal shape"

let test_resolve_generic_fn_item_rejected () =
  check_bool "generic fn item" true
    (try
       ignore (resolve "fn id<T>(T) -> T; trait Tr {} goal fn[id]: Tr;");
       false
     with Resolve.Error (Resolve.Generic_fn_item _) -> true)

let test_resolve_infer_holes_numbered () =
  let p = resolve "struct A; trait T<X, Y> {} goal A: T<_, _>;" in
  match (List.hd (Program.goals p)).goal_pred with
  | Predicate.Trait { trait_ref; _ } ->
      check_bool "distinct holes" true
        (Ty.equal_args trait_ref.args [ Ty.Ty (Ty.infer 0); Ty.Ty (Ty.infer 1) ] = false
        || trait_ref.args = [ Ty.Ty (Ty.infer 0); Ty.Ty (Ty.infer 1) ])
  | _ -> Alcotest.fail "goal shape"

let test_resolve_projection_goal () =
  let p =
    resolve
      "struct A; struct B; trait T { type Out; } impl T for A { type Out = B; } goal <A \
       as T>::Out == B;"
  in
  match (List.hd (Program.goals p)).goal_pred with
  | Predicate.Projection { projection; term } ->
      check_str "assoc" "Out" projection.assoc;
      check_bool "term" true (Ty.equal term (Ty.ctor (Path.local [ "B" ]) []))
  | _ -> Alcotest.fail "projection goal shape"

let test_resolve_unknown_assoc () =
  check_bool "unknown assoc" true
    (try
       ignore (resolve "struct A; trait T { type Out; } goal <A as T>::Wrong == A;");
       false
     with Resolve.Error (Resolve.Unknown_assoc _) -> true)

let test_resolve_on_unimplemented () =
  let p = resolve {|#[on_unimplemented("is no good")] trait T {}|} in
  let t = Option.get (Program.find_trait p (Path.local [ "T" ])) in
  check_bool "message stored" true (t.tr_on_unimplemented = Some "is no good")

let test_resolve_goal_origin () =
  let p = resolve {|struct A; trait T {} goal A: T from "the call to f()";|} in
  check_str "origin" "the call to f()" (List.hd (Program.goals p)).goal_origin

let test_parse_error_reports_span () =
  try
    ignore (resolve "struct ;");
    Alcotest.fail "should not parse"
  with Parser.Error e -> check_str "span" "t.rs:1:8" (Span.to_string e.span)

let test_parse_one_tuple () =
  let p = resolve "trait T {} goal (i32,): T;" in
  match (List.hd (Program.goals p)).goal_pred with
  | Predicate.Trait { self_ty = Ty.Tuple [ Ty.Int ]; _ } -> ()
  | _ -> Alcotest.fail "1-tuple shape"

let test_parse_grouping_paren () =
  let p = resolve "trait T {} goal (i32): T;" in
  match (List.hd (Program.goals p)).goal_pred with
  | Predicate.Trait { self_ty = Ty.Int; _ } -> ()
  | _ -> Alcotest.fail "grouping should collapse"

(* round-trip: pretty-printed resolved predicates parse back to equal *)
let test_pretty_parse_roundtrip () =
  let decls =
    "struct A; struct B<T>; trait T1 {} trait T2<X> { type Out; } fn g(A) -> i32;"
  in
  let goals =
    [
      "A: T1";
      "B<A>: T2<(A, i32)>";
      "<A as T2<i32>>::Out == B<A>";
      "&A: T1";
      "fn[g]: T1";
      "(A, B<i32>, ()): T1";
    ]
  in
  List.iter
    (fun g ->
      let src = decls ^ " goal " ^ g ^ ";" in
      let p1 = resolve src in
      let pred1 = (List.hd (Program.goals p1)).goal_pred in
      let printed = Pretty.predicate ~cfg:Pretty.expanded pred1 in
      let p2 = resolve (decls ^ " goal " ^ printed ^ ";") in
      let pred2 = (List.hd (Program.goals p2)).goal_pred in
      check_bool ("roundtrip " ^ g) true (Predicate.equal pred1 pred2))
    goals

(* ------------------------------------------------------------------ *)
(* qcheck: substitution and printing properties *)

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

let prop_subst_identity =
  QCheck.Test.make ~name:"empty substitution is identity" ~count:200 arbitrary_ty (fun t ->
      Ty.equal (Subst.ty Subst.empty t) t)

let prop_subst_idempotent_on_closed =
  QCheck.Test.make ~name:"substitution closed under ground substitution" ~count:200
    arbitrary_ty (fun t ->
      let s = Subst.of_list [ ("T", Ty.Int); ("U", Ty.Str) ] in
      let t' = Subst.ty s t in
      Ty.params t' = [] && Ty.equal (Subst.ty s t') t')

let prop_size_positive =
  QCheck.Test.make ~name:"size ≥ 1 and counts subterms" ~count:200 arbitrary_ty (fun t ->
      Ty.size t >= 1)

let prop_pretty_nonempty =
  QCheck.Test.make ~name:"pretty never empty; verbose ⊇ depth info" ~count:200 arbitrary_ty
    (fun t ->
      String.length (Pretty.ty t) > 0
      && String.length (Pretty.ty ~cfg:Pretty.verbose t)
         >= String.length (Pretty.ty ~cfg:{ Pretty.verbose with qualified_paths = false } t))

let prop_fold_visits_size =
  QCheck.Test.make ~name:"fold visits exactly size nodes" ~count:200 arbitrary_ty (fun t ->
      Ty.fold (fun n _ -> n + 1) 0 t = Ty.size t)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_subst_identity;
      prop_subst_idempotent_on_closed;
      prop_size_positive;
      prop_pretty_nonempty;
      prop_fold_visits_size;
    ]

let () =
  Alcotest.run "trait_lang"
    [
      ( "path",
        [
          Alcotest.test_case "basics" `Quick test_path_basics;
          Alcotest.test_case "equal/compare" `Quick test_path_equal_compare;
          Alcotest.test_case "empty rejected" `Quick test_path_empty_rejected;
        ] );
      ( "span",
        [
          Alcotest.test_case "basics" `Quick test_span_basics;
          Alcotest.test_case "union" `Quick test_span_union;
        ] );
      ( "ty",
        [
          Alcotest.test_case "equality" `Quick test_ty_equal;
          Alcotest.test_case "size and vars" `Quick test_ty_size_and_vars;
          Alcotest.test_case "heads" `Quick test_ty_heads;
        ] );
      ( "subst",
        [
          Alcotest.test_case "types" `Quick test_subst_ty;
          Alcotest.test_case "predicates" `Quick test_subst_predicate;
          Alcotest.test_case "regions" `Quick test_subst_regions;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "short paths" `Quick test_pretty_short_paths;
          Alcotest.test_case "qualified paths" `Quick test_pretty_qualified;
          Alcotest.test_case "ellipsis" `Quick test_pretty_ellipsis;
          Alcotest.test_case "special types" `Quick test_pretty_special_types;
          Alcotest.test_case "projection" `Quick test_pretty_projection;
          Alcotest.test_case "predicates" `Quick test_pretty_predicate;
        ] );
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "compound tokens" `Quick test_lexer_compound_tokens;
          Alcotest.test_case "spans" `Quick test_lexer_spans;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "integer out of range" `Quick test_lexer_int_out_of_range;
        ] );
      ( "stream",
        [
          Alcotest.test_case "lexer error wins" `Quick test_stream_lexer_error_wins;
          Alcotest.test_case "error at EOF" `Quick test_stream_error_at_eof;
          Alcotest.test_case "peek2 at EOF" `Quick test_stream_peek2_at_eof;
          Alcotest.test_case "source order" `Quick test_stream_source_order;
        ] );
      ( "resolve",
        [
          Alcotest.test_case "struct and goal" `Quick test_resolve_struct_and_goal;
          Alcotest.test_case "crate provenance" `Quick test_resolve_crate_provenance;
          Alcotest.test_case "modules" `Quick test_resolve_modules;
          Alcotest.test_case "qualified reference" `Quick test_resolve_qualified_reference;
          Alcotest.test_case "ambiguous name" `Quick test_resolve_ambiguous_is_error;
          Alcotest.test_case "unknown name" `Quick test_resolve_unknown_name;
          Alcotest.test_case "arity errors" `Quick test_resolve_arity_errors;
          Alcotest.test_case "not a trait" `Quick test_resolve_not_a_trait;
          Alcotest.test_case "duplicate decl" `Quick test_resolve_duplicate;
          Alcotest.test_case "Self in impl" `Quick test_resolve_self_in_impl;
          Alcotest.test_case "Self outside impl" `Quick test_resolve_self_outside_impl_errors;
          Alcotest.test_case "binding desugar" `Quick test_resolve_binding_desugar;
          Alcotest.test_case "compound bounds" `Quick test_resolve_compound_bounds;
          Alcotest.test_case "supertraits" `Quick test_resolve_supertraits;
          Alcotest.test_case "newtype" `Quick test_resolve_newtype;
          Alcotest.test_case "fn items" `Quick test_resolve_fn_items;
          Alcotest.test_case "generic fn item" `Quick test_resolve_generic_fn_item_rejected;
          Alcotest.test_case "infer holes" `Quick test_resolve_infer_holes_numbered;
          Alcotest.test_case "projection goal" `Quick test_resolve_projection_goal;
          Alcotest.test_case "unknown assoc" `Quick test_resolve_unknown_assoc;
          Alcotest.test_case "on_unimplemented" `Quick test_resolve_on_unimplemented;
          Alcotest.test_case "goal origin" `Quick test_resolve_goal_origin;
          Alcotest.test_case "parse error span" `Quick test_parse_error_reports_span;
          Alcotest.test_case "1-tuple" `Quick test_parse_one_tuple;
          Alcotest.test_case "grouping paren" `Quick test_parse_grouping_paren;
          Alcotest.test_case "pretty/parse roundtrip" `Quick test_pretty_parse_roundtrip;
        ] );
      ("properties", qcheck_tests);
    ]

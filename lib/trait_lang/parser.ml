(** Recursive-descent parser for the L_TRAIT surface syntax.  It pulls
    tokens from {!Lexer.next} one at a time, with one token of lookahead
    at most, and builds a span only where the AST keeps one.

    Grammar sketch (see the README for examples):
    {v
    file    := item*
    item    := extern | mod | struct | newtype | trait | impl | fn | goal
    extern  := 'extern' 'crate' IDENT '{' item* '}'
    mod     := 'mod' IDENT '{' item* '}'
    struct  := 'struct' IDENT generics? ';'
    newtype := 'newtype' IDENT generics? '=' ty ';'
    trait   := attr* 'trait' IDENT generics? (':' bounds)? where? '{' assoc* '}'
    assoc   := 'type' IDENT generics? (':' bounds)? ('=' ty)? ';'
    impl    := 'impl' generics? bound 'for' ty where? '{' binding* '}'
    binding := 'type' IDENT generics? '=' ty ';'
    fn      := 'fn' IDENT generics? '(' params ')' ('->' ty)?
               where? (';' | '{' stmt ... '}')
    params  := types, or name-colon-type pairs when a body follows
    stmt    := 'let' IDENT (':' ty)? '=' expr ';' | expr ';'
    expr    := prim ('.' IDENT '(' exprs ')') ...
    prim    := INT | STRING | qname ('(' exprs ')')? | '(' exprs ')'
    method  := 'fn' IDENT '(' 'self' (',' tys)? ')' ('->' ty)? ';'
    goal    := 'goal' pred ('from' STRING)? ';'
    pred    := ty ':' bounds | ty ':' LIFETIME | ty '==' ty
    ty      := '&' LIFETIME? 'mut'? ty | '(' ty,* ')' | '_' | 'Self'
             | 'dyn' qname args? | 'fn' '[' qname ']'
             | 'fn' '(' ty,* ')' ('->' ty)?
             | '<' ty 'as' qname args? '>' '::' IDENT args?
             | qname args?
    args    := '<' (ty | LIFETIME | IDENT '=' ty),* '>'
    v} *)

type error = { message : string; span : Span.t }

exception Error of error

(* [tok] is the current token, at the four positions.  [ahead] is the
   token {!peek_tok2} lexed early, if any; its position is the lexer's. *)
type state = {
  lex : Lexer.state;
  mutable tok : Token.t;
  mutable start_line : int;
  mutable start_col : int;
  mutable stop_line : int;
  mutable stop_col : int;
  mutable ahead : Token.t option;
}

let advance st =
  let lex = st.lex in
  st.tok <- (match st.ahead with Some tok -> tok | None -> Lexer.next lex);
  st.ahead <- None;
  st.start_line <- lex.Lexer.tok_line;
  st.start_col <- lex.tok_col;
  st.stop_line <- lex.line;
  st.stop_col <- lex.col

let make lex =
  let st =
    { lex; tok = Token.EOF; start_line = 1; start_col = 1; stop_line = 1; stop_col = 1;
      ahead = None }
  in
  advance st;
  st

let peek_tok st = st.tok

let peek_tok2 st =
  match st.ahead with
  | Some tok -> tok
  | None ->
      let tok = Lexer.next st.lex in
      st.ahead <- Some tok;
      tok

let cur_span st =
  Span.v ~file:st.lex.file ~start_line:st.start_line ~start_col:st.start_col
    ~stop_line:st.stop_line ~stop_col:st.stop_col

let fail st message = raise (Error { message; span = cur_span st })

let expect st tok =
  if peek_tok st = tok then advance st
  else
    fail st
      (Printf.sprintf "expected %s but found %s" (Token.to_string tok)
         (Token.to_string (peek_tok st)))

let eat st tok = if peek_tok st = tok then (advance st; true) else false

let ident st =
  match peek_tok st with
  | Token.IDENT s ->
      advance st;
      s
  | t -> fail st (Printf.sprintf "expected identifier, found %s" (Token.to_string t))

let lifetime st =
  match peek_tok st with
  | Token.LIFETIME s ->
      advance st;
      s
  | t -> fail st (Printf.sprintf "expected lifetime, found %s" (Token.to_string t))

(** [a::b::c] *)
let qname st =
  let first = ident st in
  let rec loop acc =
    if peek_tok st = Token.COLONCOLON then begin
      advance st;
      loop (ident st :: acc)
    end
    else List.rev acc
  in
  loop [ first ]

let comma_sep st ~stop parse_elem =
  let rec loop acc =
    if peek_tok st = stop then List.rev acc
    else
      let e = parse_elem st in
      if eat st Token.COMMA then loop (e :: acc) else List.rev (e :: acc)
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Types *)

let rec ty st : Ast.raw_ty =
  match peek_tok st with
  | Token.AMP ->
      advance st;
      let lt = match peek_tok st with
        | Token.LIFETIME l ->
            advance st;
            Some l
        | _ -> None
      in
      let is_mut = eat st Token.KW_MUT in
      Ast.RRef (lt, is_mut, ty st)
  | Token.LPAREN ->
      (* [()] is unit, [(τ)] is grouping, [(τ,)] is a 1-tuple. *)
      advance st;
      if peek_tok st = Token.RPAREN then begin
        advance st;
        Ast.RTuple []
      end
      else begin
        let rec loop acc =
          let e = ty st in
          if eat st Token.COMMA then
            if peek_tok st = Token.RPAREN then (List.rev (e :: acc), true)
            else loop (e :: acc)
          else (List.rev (e :: acc), false)
        in
        let elems, trailing = loop [] in
        expect st Token.RPAREN;
        match (elems, trailing) with
        | [ one ], false -> one
        | _ -> Ast.RTuple elems
      end
  | Token.UNDERSCORE ->
      let sp = cur_span st in
      advance st;
      Ast.RInfer sp
  | Token.KW_SELF ->
      let sp = cur_span st in
      advance st;
      Ast.RSelf sp
  | Token.KW_DYN ->
      let sp = cur_span st in
      advance st;
      let name = qname st in
      let args = opt_args st in
      Ast.RDyn (name, args, sp)
  | Token.KW_FN ->
      let sp = cur_span st in
      advance st;
      if eat st Token.LBRACKET then begin
        let name = qname st in
        expect st Token.RBRACKET;
        Ast.RFnItem (name, sp)
      end
      else begin
        expect st Token.LPAREN;
        let inputs = comma_sep st ~stop:Token.RPAREN ty in
        expect st Token.RPAREN;
        let output = if eat st Token.ARROW then Some (ty st) else None in
        (* rustc prints fn items as [fn(τ̄) -> τ {name}]; accept that form
           back (the signature is re-derived from the declaration).  Only
           when an identifier follows the brace: in [impl T for fn(A) { }]
           the brace opens the impl body — which never starts with an
           identifier — not a fn-item name. *)
        if
          peek_tok st = Token.LBRACE
          && (match peek_tok2 st with Token.IDENT _ -> true | _ -> false)
        then begin
          expect st Token.LBRACE;
          let name = qname st in
          expect st Token.RBRACE;
          Ast.RFnItem (name, sp)
        end
        else Ast.RFnPtr (inputs, output)
      end
  | Token.LT ->
      (* <ty as Trait<..>>::Assoc<..> *)
      advance st;
      let self_ty = ty st in
      expect st Token.KW_AS;
      let tr_span = cur_span st in
      let tr_name = qname st in
      let tr_args = opt_args st in
      expect st Token.GT;
      expect st Token.COLONCOLON;
      let assoc = ident st in
      let assoc_args = opt_args st in
      Ast.RProj (self_ty, (tr_name, tr_args, tr_span), assoc, assoc_args)
  | Token.IDENT _ ->
      let sp = cur_span st in
      let name = qname st in
      let args = opt_args st in
      Ast.RName (name, args, sp)
  | t -> fail st (Printf.sprintf "expected a type, found %s" (Token.to_string t))

and opt_args st : Ast.raw_arg list =
  if peek_tok st <> Token.LT then []
  else begin
    advance st;
    let args = comma_sep st ~stop:Token.GT arg in
    expect st Token.GT;
    args
  end

and arg st : Ast.raw_arg =
  match peek_tok st with
  | Token.LIFETIME l ->
      advance st;
      Ast.RLt l
  | Token.IDENT name when peek_tok2 st = Token.EQ ->
      (* [Assoc = τ] binding sugar *)
      advance st;
      advance st;
      Ast.RBinding (name, ty st)
  | _ -> Ast.RTy (ty st)

(* ------------------------------------------------------------------ *)
(* Bounds and predicates *)

let bound st : Ast.raw_bound =
  let bound_span = cur_span st in
  let bound_name = qname st in
  let bound_args = opt_args st in
  { bound_name; bound_args; bound_span }

let bounds st =
  let first = bound st in
  let rec loop acc = if eat st Token.PLUS then loop (bound st :: acc) else List.rev acc in
  loop [ first ]

let pred st : Ast.raw_pred =
  let lhs = ty st in
  match peek_tok st with
  | Token.COLON -> begin
      advance st;
      match peek_tok st with
      | Token.LIFETIME l ->
          advance st;
          Ast.RPOutlives (lhs, l)
      | _ -> Ast.RPTrait (lhs, bounds st)
    end
  | Token.EQEQ ->
      advance st;
      Ast.RPProjEq (lhs, ty st)
  | t ->
      fail st (Printf.sprintf "expected ':' or '==' in predicate, found %s" (Token.to_string t))

(* ------------------------------------------------------------------ *)
(* Generics and where clauses *)

let generic_params st =
  if peek_tok st <> Token.LT then ([], [])
  else begin
    advance st;
    let lts = ref [] and ps = ref [] in
    let elem st =
      match peek_tok st with
      | Token.LIFETIME l ->
          advance st;
          lts := l :: !lts
      | _ -> ps := ident st :: !ps
    in
    let rec loop () =
      if peek_tok st = Token.GT then ()
      else begin
        elem st;
        if eat st Token.COMMA then loop ()
      end
    in
    loop ();
    expect st Token.GT;
    (List.rev !lts, List.rev !ps)
  end

let where_clause st =
  if not (eat st Token.KW_WHERE) then []
  else
    (* predicates separated by commas, terminated by '{' or ';' *)
    let rec loop acc =
      let p = pred st in
      if eat st Token.COMMA then
        (* allow trailing comma before '{' / ';' *)
        if peek_tok st = Token.LBRACE || peek_tok st = Token.SEMI then List.rev (p :: acc)
        else loop (p :: acc)
      else List.rev (p :: acc)
    in
    loop []

let generics_of st lts ps wc : Ast.raw_generics =
  ignore st;
  { Ast.rg_lifetimes = lts; rg_params = ps; rg_where = wc }

(* ------------------------------------------------------------------ *)
(* Items *)

let attr st : Ast.attr =
  expect st Token.HASH;
  expect st Token.LBRACKET;
  let name = ident st in
  let a =
    match name with
    | "on_unimplemented" ->
        expect st Token.LPAREN;
        let msg =
          match peek_tok st with
          | Token.STRING s ->
              advance st;
              s
          | t -> fail st (Printf.sprintf "expected string, found %s" (Token.to_string t))
        in
        expect st Token.RPAREN;
        Ast.On_unimplemented msg
    | other -> fail st (Printf.sprintf "unknown attribute %S" other)
  in
  expect st Token.RBRACKET;
  a

(* ------------------------------------------------------------------ *)
(* Expressions (fn bodies) *)

let rec expr st : Ast.raw_expr =
  let e = prim_expr st in
  postfix st e

and postfix st e =
  if peek_tok st = Token.DOT then begin
    advance st;
    let sp = cur_span st in
    let m = ident st in
    expect st Token.LPAREN;
    let args = comma_sep st ~stop:Token.RPAREN expr in
    expect st Token.RPAREN;
    postfix st (Ast.RE_method (e, m, args, sp))
  end
  else e

and prim_expr st : Ast.raw_expr =
  let sp = cur_span st in
  match peek_tok st with
  | Token.INT _ ->
      advance st;
      Ast.RE_int sp
  | Token.STRING _ ->
      advance st;
      Ast.RE_string sp
  | Token.LPAREN ->
      advance st;
      let elems = comma_sep st ~stop:Token.RPAREN expr in
      expect st Token.RPAREN;
      (match elems with [ one ] -> one | _ -> Ast.RE_tuple (elems, sp))
  | Token.IDENT _ ->
      let name = qname st in
      if peek_tok st = Token.LPAREN then begin
        advance st;
        let args = comma_sep st ~stop:Token.RPAREN expr in
        expect st Token.RPAREN;
        Ast.RE_call (name, args, sp)
      end
      else Ast.RE_name (name, sp)
  | t -> fail st (Printf.sprintf "expected an expression, found %s" (Token.to_string t))

let stmt st : Ast.raw_stmt =
  let sp = cur_span st in
  match peek_tok st with
  | Token.IDENT "let" ->
      advance st;
      let name = ident st in
      let ann = if eat st Token.COLON then Some (ty st) else None in
      expect st Token.EQ;
      let rhs = expr st in
      expect st Token.SEMI;
      Ast.RS_let { name; ann; rhs; span = sp }
  | _ ->
      let e = expr st in
      expect st Token.SEMI;
      Ast.RS_expr e

let body st : Ast.raw_stmt list =
  let rec loop acc =
    if peek_tok st = Token.RBRACE then List.rev acc else loop (stmt st :: acc)
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Trait items *)

(** [fn m(self, τ̄) -> τ;] inside a trait. *)
let method_decl st : Ast.raw_method =
  let rm_span = cur_span st in
  expect st Token.KW_FN;
  let rm_name = ident st in
  let lts, ps = generic_params st in
  expect st Token.LPAREN;
  (* optional implicit receiver *)
  (match peek_tok st with
  | Token.IDENT "self" ->
      advance st;
      ignore (eat st Token.COMMA)
  | _ -> ());
  let rm_inputs = comma_sep st ~stop:Token.RPAREN ty in
  expect st Token.RPAREN;
  let rm_output = if eat st Token.ARROW then Some (ty st) else None in
  let wc = where_clause st in
  expect st Token.SEMI;
  { Ast.rm_name; rm_generics = generics_of st lts ps wc; rm_inputs; rm_output; rm_span }

let assoc_decl st : Ast.raw_assoc_decl =
  expect st Token.KW_TYPE;
  let name = ident st in
  let lts, ps = generic_params st in
  let bnds = if eat st Token.COLON then bounds st else [] in
  let default = if eat st Token.EQ then Some (ty st) else None in
  expect st Token.SEMI;
  {
    Ast.ra_name = name;
    ra_generics = generics_of st lts ps [];
    ra_bounds = bnds;
    ra_default = default;
  }

let rec item st : Ast.item =
  let start_span = cur_span st in
  match peek_tok st with
  | Token.HASH ->
      let attrs =
        let rec loop acc = if peek_tok st = Token.HASH then loop (attr st :: acc) else List.rev acc in
        loop []
      in
      (match item st with
      | Ast.RTrait t -> Ast.RTrait { t with attrs }
      | _ -> fail st "attributes are only supported on traits")
  | Token.KW_EXTERN ->
      advance st;
      expect st Token.KW_CRATE;
      let name = ident st in
      expect st Token.LBRACE;
      let items = items_until st Token.RBRACE in
      expect st Token.RBRACE;
      Ast.RExtern (name, items)
  | Token.KW_MOD ->
      advance st;
      let name = ident st in
      expect st Token.LBRACE;
      let items = items_until st Token.RBRACE in
      expect st Token.RBRACE;
      Ast.RMod (name, items)
  | Token.KW_STRUCT ->
      advance st;
      let name = ident st in
      let lts, ps = generic_params st in
      let wc = where_clause st in
      expect st Token.SEMI;
      Ast.RStruct
        { name; generics = generics_of st lts ps wc; repr = None; span = start_span }
  | Token.KW_NEWTYPE ->
      advance st;
      let name = ident st in
      let lts, ps = generic_params st in
      expect st Token.EQ;
      let repr = ty st in
      expect st Token.SEMI;
      Ast.RStruct
        { name; generics = generics_of st lts ps []; repr = Some repr; span = start_span }
  | Token.KW_TRAIT ->
      advance st;
      let name = ident st in
      let lts, ps = generic_params st in
      let supers = if eat st Token.COLON then bounds st else [] in
      let wc = where_clause st in
      expect st Token.LBRACE;
      let assocs = ref [] and methods = ref [] in
      let rec items () =
        match peek_tok st with
        | Token.KW_TYPE ->
            assocs := assoc_decl st :: !assocs;
            items ()
        | Token.KW_FN ->
            methods := method_decl st :: !methods;
            items ()
        | _ -> ()
      in
      items ();
      expect st Token.RBRACE;
      Ast.RTrait
        {
          name;
          generics = generics_of st lts ps wc;
          supertraits = supers;
          assocs = List.rev !assocs;
          methods = List.rev !methods;
          span = start_span;
          attrs = [];
        }
  | Token.KW_IMPL ->
      advance st;
      let lts, ps = generic_params st in
      let trait_ = bound st in
      expect st Token.KW_FOR;
      let self_ty = ty st in
      let wc = where_clause st in
      expect st Token.LBRACE;
      let bindings =
        let rec loop acc =
          if peek_tok st = Token.KW_TYPE then begin
            advance st;
            let name = ident st in
            let blts, bps = generic_params st in
            expect st Token.EQ;
            let t = ty st in
            expect st Token.SEMI;
            loop ((name, generics_of st blts bps [], t) :: acc)
          end
          else List.rev acc
        in
        loop []
      in
      expect st Token.RBRACE;
      Ast.RImpl
        {
          generics = generics_of st lts ps wc;
          trait_;
          self_ty;
          assoc_bindings = bindings;
          span = start_span;
        }
  | Token.KW_FN ->
      advance st;
      let name = ident st in
      let lts, ps = generic_params st in
      expect st Token.LPAREN;
      (* named params ([x: A]) permit a body; bare types do not *)
      let named =
        match (peek_tok st, peek_tok2 st) with
        | Token.IDENT _, Token.COLON -> true
        | _ -> false
      in
      let param_names, inputs =
        if named then begin
          let params =
            comma_sep st ~stop:Token.RPAREN (fun st ->
                let n = ident st in
                expect st Token.COLON;
                (n, ty st))
          in
          (Some (List.map fst params), List.map snd params)
        end
        else (None, comma_sep st ~stop:Token.RPAREN ty)
      in
      expect st Token.RPAREN;
      let output = if eat st Token.ARROW then Some (ty st) else None in
      let wc = where_clause st in
      let body_stmts =
        if peek_tok st = Token.LBRACE then begin
          advance st;
          let b = body st in
          expect st Token.RBRACE;
          Some b
        end
        else begin
          expect st Token.SEMI;
          None
        end
      in
      Ast.RFn
        {
          name;
          generics = generics_of st lts ps wc;
          inputs;
          param_names;
          output;
          body = body_stmts;
          span = start_span;
        }
  | Token.KW_GOAL ->
      advance st;
      let p = pred st in
      let origin =
        if eat st Token.KW_FROM then
          match peek_tok st with
          | Token.STRING s ->
              advance st;
              Some s
          | t -> fail st (Printf.sprintf "expected string after 'from', found %s" (Token.to_string t))
        else None
      in
      expect st Token.SEMI;
      Ast.RGoal { pred = p; origin; span = start_span }
  | t -> fail st (Printf.sprintf "expected an item, found %s" (Token.to_string t))

and items_until st stop =
  let rec loop acc = if peek_tok st = stop then List.rev acc else loop (item st :: acc) in
  loop []

(** Parse a whole source file into a raw AST.  A lexer error anywhere in
    the file wins over a parse error, as if the file were lexed first: a
    parse error is re-raised only once the rest of the input lexes. *)
let parse ~file src : Ast.t =
  let lex = Lexer.make ~file src in
  let lex_error (e : Lexer.error) = Error { message = e.message; span = e.span } in
  let rec drain () = if Lexer.next lex <> Token.EOF then drain () in
  try
    let st = make lex in
    let items = items_until st Token.EOF in
    expect st Token.EOF;
    items
  with
  | Lexer.Error e -> raise (lex_error e)
  | Error _ as parse_error ->
      (try drain () with Lexer.Error e -> raise (lex_error e));
      raise parse_error

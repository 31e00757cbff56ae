(** Hand-written lexer for the L_TRAIT surface syntax.

    The syntax is small enough that a hand lexer beats a generator: it
    keeps the front end dependency-free.  The parser pulls one token at a
    time with {!next}, and a token's precise span, which flows through to
    declaration spans (CtxtLinks), is built only on request ({!span}). *)

type error = { message : string; span : Span.t }

exception Error of error

type spanned = { tok : Token.t; span : Span.t }

type state = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
  mutable tok_line : int;  (** start of the token {!next} last returned *)
  mutable tok_col : int;
}

let make ~file src = { src; file; pos = 0; line = 1; col = 1; tok_line = 1; tok_col = 1 }

let is_eof st = st.pos >= String.length st.src
let peek st = if is_eof st then '\000' else st.src.[st.pos]
let peek2 st = if st.pos + 1 >= String.length st.src then '\000' else st.src.[st.pos + 1]

let advance st =
  if not (is_eof st) then begin
    if st.src.[st.pos] = '\n' then begin
      st.line <- st.line + 1;
      st.col <- 1
    end
    else st.col <- st.col + 1;
    st.pos <- st.pos + 1
  end

let error st message =
  raise
    (Error
       {
         message;
         span =
           Span.v ~file:st.file ~start_line:st.line ~start_col:st.col ~stop_line:st.line
             ~stop_col:st.col;
       })

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let rec skip_trivia st =
  match peek st with
  | ' ' | '\t' | '\r' | '\n' ->
      advance st;
      skip_trivia st
  | '/' when peek2 st = '/' ->
      while (not (is_eof st)) && peek st <> '\n' do
        advance st
      done;
      skip_trivia st
  | '/' when peek2 st = '*' ->
      advance st;
      advance st;
      let rec loop () =
        if is_eof st then error st "unterminated block comment"
        else if peek st = '*' && peek2 st = '/' then begin
          advance st;
          advance st
        end
        else begin
          advance st;
          loop ()
        end
      in
      loop ();
      skip_trivia st
  | _ -> ()

let lex_ident st =
  let start = st.pos in
  while is_ident_char (peek st) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

let lex_string st =
  advance st (* opening quote *);
  let buf = Buffer.create 16 in
  let rec loop () =
    if is_eof st then error st "unterminated string literal"
    else
      match peek st with
      | '"' -> advance st
      | '\\' ->
          advance st;
          (match peek st with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | c -> Buffer.add_char buf c);
          advance st;
          loop ()
      | c ->
          Buffer.add_char buf c;
          advance st;
          loop ()
  in
  loop ();
  Buffer.contents buf

(** The span of the token the last {!next} returned: from its start to
    the lexer's current position. *)
let span st =
  Span.v ~file:st.file ~start_line:st.tok_line ~start_col:st.tok_col ~stop_line:st.line
    ~stop_col:st.col

let single st tok =
  advance st;
  tok

(** Lex one token; returns [EOF] forever at end of input.  Its position
    is left in the state until the next call: see {!span}. *)
let next st : Token.t =
  skip_trivia st;
  st.tok_line <- st.line;
  st.tok_col <- st.col;
  if is_eof st then Token.EOF
  else
    match peek st with
    | c when is_digit c -> (
        let start = st.pos in
        while is_digit (peek st) do
          advance st
        done;
        match int_of_string_opt (String.sub st.src start (st.pos - start)) with
        | Some i -> Token.INT i
        | None -> raise (Error { message = "integer literal out of range"; span = span st }))
    | c when is_ident_start c ->
        let id = lex_ident st in
        if id = "_" then Token.UNDERSCORE
        else (match Token.keyword_of_string id with Some k -> k | None -> Token.IDENT id)
    | '\'' ->
        advance st;
        if not (is_ident_start (peek st)) then error st "expected lifetime name after '";
        Token.LIFETIME (lex_ident st)
    | '"' -> Token.STRING (lex_string st)
    | '<' -> single st Token.LT
    | '>' -> single st Token.GT
    | '(' -> single st Token.LPAREN
    | ')' -> single st Token.RPAREN
    | '{' -> single st Token.LBRACE
    | '}' -> single st Token.RBRACE
    | '[' -> single st Token.LBRACKET
    | ']' -> single st Token.RBRACKET
    | ',' -> single st Token.COMMA
    | ';' -> single st Token.SEMI
    | ':' ->
        advance st;
        if peek st = ':' then single st Token.COLONCOLON else Token.COLON
    | '=' ->
        advance st;
        if peek st = '=' then single st Token.EQEQ else Token.EQ
    | '-' ->
        advance st;
        if peek st = '>' then single st Token.ARROW else error st "expected '>' after '-'"
    | '&' -> single st Token.AMP
    | '+' -> single st Token.PLUS
    | '.' -> single st Token.DOT
    | '#' -> single st Token.HASH
    | '!' -> single st Token.BANG
    | c -> error st (Printf.sprintf "unexpected character %C" c)

(** Lex the whole input into a token list with spans, for tests and
    tools; the parser pulls tokens one at a time with {!next} instead. *)
let tokenize ~file src =
  let st = make ~file src in
  let rec loop acc =
    let tok = next st in
    let t = { tok; span = span st } in
    if tok = Token.EOF then List.rev (t :: acc) else loop (t :: acc)
  in
  loop []

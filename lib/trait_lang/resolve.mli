(** Name resolution: lowers the raw surface {!Ast} to a {!Program.t},
    handling two-pass binding, crate provenance, arity checking,
    desugaring ([A + B] bounds, [Trait<Assoc = τ>] bindings, supertraits,
    [Self]), and the numbering of [_] inference holes. *)

type error =
  | Unknown_name of string * Span.t
  | Ambiguous_name of string * Path.t list * Span.t
  | Arity_mismatch of { what : string; expected : int; got : int; span : Span.t }
  | Self_outside_impl of Span.t
  | Binding_not_allowed of Span.t
  | Unknown_assoc of { trait_ : Path.t; assoc : string; span : Span.t }
  | Not_a_trait of string * Span.t
  | Not_a_type of string * Span.t
  | Duplicate_decl of string * Span.t
  | Generic_fn_item of string * Span.t
  | Projection_expected of Span.t

exception Error of error

val error_message : error -> string
val error_span : error -> Span.t

(** Lower a parsed file. *)
val lower : Ast.t -> Program.t

(** Parse ({!Parser.parse}) and resolve in one step.
    @raise Parser.Error on syntax errors
    @raise Error on resolution errors *)
val program_of_string : file:string -> string -> Program.t

(** {!program_of_string} with its errors rendered as the one-line
    messages every front end prints: [FILE:LINE:COL: parse error: MSG]
    for syntax errors, [FILE:LINE:COL: MSG] for resolution errors. *)
val load : file:string -> string -> (Program.t, string) result

(** Name resolution: lowers the raw surface {!Ast} to a {!Program.t}.

    Responsibilities:
    - two-pass name binding (declarations may be used before they appear);
    - disambiguating identifiers into primitives, bound type parameters,
      and nominal constructors;
    - crate provenance: items inside [extern crate c { ... }] get
      [External c] paths, everything else is [Local];
    - arity checking of constructor and trait applications;
    - desugaring: [T: A + B] compound bounds, [Iterator<Item = U>]
      associated-type bindings, supertrait bounds, [Self];
    - numbering the [_] inference holes in goals. *)

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

let error_message = function
  | Unknown_name (n, _) -> Printf.sprintf "cannot find `%s` in this scope" n
  | Ambiguous_name (n, paths, _) ->
      Printf.sprintf "`%s` is ambiguous: %s" n
        (String.concat ", " (List.map Path.to_string paths))
  | Arity_mismatch { what; expected; got; _ } ->
      Printf.sprintf "%s expects %d generic argument%s but %d %s supplied" what expected
        (if expected = 1 then "" else "s")
        got
        (if got = 1 then "was" else "were")
  | Self_outside_impl _ -> "`Self` is only allowed inside traits and impls"
  | Binding_not_allowed _ ->
      "associated type bindings (`Assoc = T`) are only allowed in trait bounds"
  | Unknown_assoc { trait_; assoc; _ } ->
      Printf.sprintf "trait `%s` has no associated type `%s`" (Path.to_string trait_) assoc
  | Not_a_trait (n, _) -> Printf.sprintf "`%s` is not a trait" n
  | Not_a_type (n, _) -> Printf.sprintf "`%s` is not a type" n
  | Duplicate_decl (n, _) -> Printf.sprintf "`%s` is declared more than once" n
  | Generic_fn_item (n, _) ->
      Printf.sprintf "`fn[%s]` cannot reference a generic function" n
  | Projection_expected _ -> "left-hand side of `==` must be a projection `<T as Trait>::Assoc`"

let error_span = function
  | Unknown_name (_, s)
  | Ambiguous_name (_, _, s)
  | Arity_mismatch { span = s; _ }
  | Self_outside_impl s
  | Binding_not_allowed s
  | Unknown_assoc { span = s; _ }
  | Not_a_trait (_, s)
  | Not_a_type (_, s)
  | Duplicate_decl (_, s)
  | Generic_fn_item (_, s)
  | Projection_expected s ->
      s

(* ------------------------------------------------------------------ *)
(* Pass 1: collect declared names. *)

type sig_entry = {
  se_path : Path.t;
  se_arity : int;  (** number of type parameters (excluding Self for traits) *)
  se_assocs : string list;  (** associated type names, traits only *)
  se_fn : (Ast.raw_ty list * Ast.raw_ty option * Ast.raw_generics) option;
      (** raw signature for fn items *)
}

type namespace = { by_name : (string, sig_entry list) Hashtbl.t }

let ns_create () = { by_name = Hashtbl.create 64 }

let ns_add ns name entry span =
  let existing = Option.value ~default:[] (Hashtbl.find_opt ns.by_name name) in
  if List.exists (fun e -> Path.equal e.se_path entry.se_path) existing then
    raise (Error (Duplicate_decl (Path.to_string entry.se_path, span)));
  Hashtbl.replace ns.by_name name (entry :: existing)

(** Resolve [segments] in [ns].  A one-segment name matches by item name
    (must be unique); a multi-segment name must match a suffix of exactly
    one declared path, optionally starting with its crate name or
    [crate]. *)
let ns_find ns segments span =
  let name = List.nth segments (List.length segments - 1) in
  match Hashtbl.find_opt ns.by_name name with
  | None -> None
  | Some entries ->
      let qualifies (e : sig_entry) =
        match segments with
        | [ _ ] -> true
        | _ ->
            let full =
              (match Path.crate e.se_path with
              | Path.Local -> [ "crate" ]
              | Path.External c -> [ c ])
              @ Path.segments e.se_path
            in
            (* [segments] must be a suffix of [full] *)
            let is_suffix xs ys =
              List.length xs <= List.length ys
              &&
              let drop = List.length ys - List.length xs in
              let rec nth_tail n l = if n = 0 then l else nth_tail (n - 1) (List.tl l) in
              List.for_all2 String.equal xs (nth_tail drop ys)
            in
            is_suffix segments full
      in
      (match List.filter qualifies entries with
      | [ one ] -> Some one
      | [] -> None
      | many ->
          raise
            (Error
               (Ambiguous_name
                  (String.concat "::" segments, List.map (fun e -> e.se_path) many, span))))

type tables = { types : namespace; traits : namespace; fns : namespace }

let collect (items : Ast.t) : tables =
  let tables = { types = ns_create (); traits = ns_create (); fns = ns_create () } in
  let rec go crate rev_mods items =
    List.iter
      (fun (it : Ast.item) ->
        match it with
        | Ast.RStruct { name; generics; span; _ } ->
            let path = Path.v ~crate (List.rev (name :: rev_mods)) in
            ns_add tables.types name
              {
                se_path = path;
                se_arity = List.length generics.rg_params;
                se_assocs = [];
                se_fn = None;
              }
              span
        | Ast.RTrait { name; generics; assocs; span; _ } ->
            let path = Path.v ~crate (List.rev (name :: rev_mods)) in
            ns_add tables.traits name
              {
                se_path = path;
                se_arity = List.length generics.rg_params;
                se_assocs = List.map (fun (a : Ast.raw_assoc_decl) -> a.ra_name) assocs;
                se_fn = None;
              }
              span
        | Ast.RFn { name; generics; inputs; output; span; _ } ->
            let path = Path.v ~crate (List.rev (name :: rev_mods)) in
            ns_add tables.fns name
              {
                se_path = path;
                se_arity = List.length generics.rg_params;
                se_assocs = [];
                se_fn = Some (inputs, output, generics);
              }
              span
        | Ast.RImpl _ | Ast.RGoal _ -> ()
        | Ast.RMod (m, sub) -> go crate (m :: rev_mods) sub
        | Ast.RExtern (c, sub) -> go (Path.External c) rev_mods sub)
      items
  in
  go Path.Local [] items;
  tables

(* ------------------------------------------------------------------ *)
(* Pass 2: lower items. *)

type env = {
  tables : tables;
  bound_params : string list;  (** type parameters in scope *)
  self_ty : Ty.t option;  (** [Self] resolution, if in an impl/trait *)
  fresh_infer : unit -> int;
}

let prim_of_name = function
  | "i32" | "i64" | "u8" | "u32" -> Some Ty.Int
  | "usize" | "isize" -> Some Ty.Uint
  | "f32" | "f64" -> Some Ty.Float
  | "bool" -> Some Ty.Bool
  | "String" | "str" -> Some Ty.Str
  | _ -> None

let rec lower_ty env (t : Ast.raw_ty) : Ty.t =
  match t with
  | Ast.RInfer _ -> Ty.Infer (env.fresh_infer ())
  | Ast.RSelf sp -> (
      match env.self_ty with Some t -> t | None -> raise (Error (Self_outside_impl sp)))
  | Ast.RRef (lt, is_mut, inner) ->
      let region =
        match lt with
        | Some "static" -> Region.Static
        | Some l -> Region.Named l
        | None -> Region.Erased
      in
      let inner = lower_ty env inner in
      if is_mut then Ty.RefMut (region, inner) else Ty.Ref (region, inner)
  | Ast.RTuple ts -> Ty.tuple (List.map (lower_ty env) ts)
  | Ast.RFnPtr (inputs, output) ->
      Ty.FnPtr
        (List.map (lower_ty env) inputs, Option.fold ~none:Ty.Unit ~some:(lower_ty env) output)
  | Ast.RFnItem (segments, sp) -> (
      let name = String.concat "::" segments in
      match ns_find env.tables.fns segments sp with
      | None -> raise (Error (Unknown_name (name, sp)))
      | Some e -> (
          match e.se_fn with
          | Some (inputs, output, g) ->
              if g.rg_params <> [] then raise (Error (Generic_fn_item (name, sp)));
              let fenv = { env with bound_params = []; self_ty = None } in
              Ty.FnItem
                ( e.se_path,
                  List.map (lower_ty fenv) inputs,
                  Option.fold ~none:Ty.Unit ~some:(lower_ty fenv) output )
          | None -> raise (Error (Unknown_name (name, sp)))))
  | Ast.RDyn (segments, args, sp) ->
      let tr = lower_trait_ref env segments args sp in
      Ty.Dynamic tr
  | Ast.RProj (self_ty, (tr_name, tr_args, tr_span), assoc, assoc_args) ->
      Ty.Proj (lower_projection env self_ty (tr_name, tr_args, tr_span) assoc assoc_args)
  | Ast.RName (segments, args, sp) -> (
      match segments with
      | [ one ] when List.mem one env.bound_params ->
          if args <> [] then
            raise
              (Error
                 (Arity_mismatch
                    { what = "type parameter " ^ one; expected = 0; got = List.length args; span = sp }));
          Ty.Param one
      | [ one ] when prim_of_name one <> None ->
          if args <> [] then
            raise
              (Error
                 (Arity_mismatch
                    { what = one; expected = 0; got = List.length args; span = sp }));
          Option.get (prim_of_name one)
      | _ -> (
          let name = String.concat "::" segments in
          match ns_find env.tables.types segments sp with
          | Some e ->
              let ty_args = lower_args env args sp ~allow_bindings:false in
              let n_tys =
                List.length
                  (List.filter (function Ty.Ty _ -> true | _ -> false) ty_args)
              in
              if n_tys <> e.se_arity then
                raise
                  (Error
                     (Arity_mismatch
                        { what = "struct " ^ name; expected = e.se_arity; got = n_tys; span = sp }));
              Ty.Ctor (e.se_path, ty_args)
          | None ->
              (* helpful error: is it a trait or fn used as a type? *)
              if ns_find env.tables.traits segments sp <> None then
                raise (Error (Not_a_type (name, sp)))
              else raise (Error (Unknown_name (name, sp)))))

and lower_args env (args : Ast.raw_arg list) sp ~allow_bindings : Ty.arg list =
  List.filter_map
    (fun (a : Ast.raw_arg) ->
      match a with
      | Ast.RTy t -> Some (Ty.Ty (lower_ty env t))
      | Ast.RLt "static" -> Some (Ty.Lifetime Region.Static)
      | Ast.RLt l -> Some (Ty.Lifetime (Region.Named l))
      | Ast.RBinding _ ->
          if allow_bindings then None else raise (Error (Binding_not_allowed sp)))
    args

and lower_trait_ref env segments args sp : Ty.trait_ref =
  let name = String.concat "::" segments in
  match ns_find env.tables.traits segments sp with
  | Some e ->
      let ty_args = lower_args env args sp ~allow_bindings:true in
      let n_tys = List.length (List.filter (function Ty.Ty _ -> true | _ -> false) ty_args) in
      if n_tys <> e.se_arity then
        raise
          (Error
             (Arity_mismatch
                { what = "trait " ^ name; expected = e.se_arity; got = n_tys; span = sp }));
      { Ty.trait = e.se_path; args = ty_args }
  | None ->
      if ns_find env.tables.types segments sp <> None then raise (Error (Not_a_trait (name, sp)))
      else raise (Error (Unknown_name (name, sp)))

and lower_projection env self_ty (tr_name, tr_args, tr_span) assoc assoc_args : Ty.projection
    =
  let tr = lower_trait_ref env tr_name tr_args tr_span in
  (match ns_find env.tables.traits tr_name tr_span with
  | Some e when not (List.mem assoc e.se_assocs) ->
      raise (Error (Unknown_assoc { trait_ = e.se_path; assoc; span = tr_span }))
  | _ -> ());
  {
    Ty.self_ty = lower_ty env self_ty;
    proj_trait = tr;
    assoc;
    assoc_args = lower_args env assoc_args tr_span ~allow_bindings:false;
  }

(** Lower a bound on [self] into predicates: the trait bound itself plus
    one projection predicate per [Assoc = τ] binding. *)
let lower_bound env (self : Ty.t) (b : Ast.raw_bound) : Predicate.t list =
  let tr = lower_trait_ref env b.bound_name b.bound_args b.bound_span in
  let head = Predicate.Trait { self_ty = self; trait_ref = tr } in
  let bindings =
    List.filter_map
      (fun (a : Ast.raw_arg) ->
        match a with
        | Ast.RBinding (assoc, t) ->
            let term = lower_ty env t in
            Some
              (Predicate.Projection
                 {
                   projection = { self_ty = self; proj_trait = tr; assoc; assoc_args = [] };
                   term;
                 })
        | _ -> None)
      b.bound_args
  in
  head :: bindings

let lower_pred env (p : Ast.raw_pred) : Predicate.t list =
  match p with
  | Ast.RPTrait (self, bnds) ->
      let self = lower_ty env self in
      List.concat_map (lower_bound env self) bnds
  | Ast.RPOutlives (t, "static") -> [ Predicate.TypeOutlives (lower_ty env t, Region.Static) ]
  | Ast.RPOutlives (t, l) -> [ Predicate.TypeOutlives (lower_ty env t, Region.Named l) ]
  | Ast.RPProjEq (lhs, rhs) -> (
      match lower_ty env lhs with
      | Ty.Proj proj -> [ Predicate.Projection { projection = proj; term = lower_ty env rhs } ]
      | _ ->
          let sp =
            match lhs with
            | Ast.RName (_, _, s) | Ast.RInfer s | Ast.RSelf s | Ast.RDyn (_, _, s)
            | Ast.RFnItem (_, s) ->
                s
            | _ -> Span.dummy
          in
          raise (Error (Projection_expected sp)))


(* ------------------------------------------------------------------ *)
(* Expressions (fn bodies) *)

(** Lower a raw expression.  Name resolution: declared fns win over
    locals of the same name (document: don't shadow a fn); capitalized
    names must be structs; [true]/[false] are boolean literals. *)
let rec lower_expr env (e : Ast.raw_expr) : Expr.t =
  match e with
  | Ast.RE_int sp -> Expr.Lit_int sp
  | Ast.RE_string sp -> Expr.Lit_str sp
  | Ast.RE_tuple ([], sp) -> Expr.Lit_unit sp
  | Ast.RE_tuple (es, sp) -> Expr.Tuple_expr (List.map (lower_expr env) es, sp)
  | Ast.RE_method (recv, m, args, sp) ->
      Expr.Method (lower_expr env recv, m, List.map (lower_expr env) args, sp)
  | Ast.RE_name ([ "true" ], sp) | Ast.RE_name ([ "false" ], sp) -> Expr.Lit_bool sp
  | Ast.RE_name (segments, sp) -> (
      match ns_find env.tables.fns segments sp with
      | Some e -> Expr.Fn_ref (e.se_path, sp)
      | None -> (
          match ns_find env.tables.types segments sp with
          | Some e -> Expr.Ctor (e.se_path, [], sp)
          | None -> (
              match segments with
              | [ one ] when String.length one > 0 && one.[0] >= 'a' && one.[0] <= 'z' ->
                  Expr.Var (one, sp)
              | _ -> raise (Error (Unknown_name (String.concat "::" segments, sp))))))
  | Ast.RE_call (segments, args, sp) -> (
      let args = List.map (lower_expr env) args in
      match ns_find env.tables.fns segments sp with
      | Some e -> Expr.Call (e.se_path, args, sp)
      | None -> (
          match ns_find env.tables.types segments sp with
          | Some e -> Expr.Ctor (e.se_path, args, sp)
          | None -> raise (Error (Unknown_name (String.concat "::" segments, sp)))))

let lower_stmt env (st : Ast.raw_stmt) : Expr.stmt =
  match st with
  | Ast.RS_let { name; ann; rhs; span } ->
      Expr.Let { name; ann = Option.map (lower_ty env) ann; rhs = lower_expr env rhs; span }
  | Ast.RS_expr e -> Expr.Expr_stmt (lower_expr env e)

let lower_generics env (g : Ast.raw_generics) : Decl.generics * env =
  let env = { env with bound_params = g.rg_params @ env.bound_params } in
  let where_clauses = List.concat_map (lower_pred env) g.rg_where in
  ({ Decl.lifetimes = g.rg_lifetimes; ty_params = g.rg_params; where_clauses }, env)

(* ------------------------------------------------------------------ *)
(* Driving the lowering over the item tree. *)

let lower (items : Ast.t) : Program.t =
  let tables = collect items in
  let infer_counter = ref 0 in
  let fresh_infer () =
    let i = !infer_counter in
    incr infer_counter;
    i
  in
  let impl_counter = ref 0 in
  let base_env =
    { tables; bound_params = []; self_ty = None; fresh_infer }
  in
  (* Local accumulators, built reversed. *)
  let decls = ref [] and goals = ref [] in
  let rec go crate rev_mods items =
    List.iter
      (fun (it : Ast.item) ->
        match it with
        | Ast.RMod (m, sub) -> go crate (m :: rev_mods) sub
        | Ast.RExtern (c, sub) -> go (Path.External c) rev_mods sub
        | Ast.RStruct { name; generics; repr; span } ->
            let path = Path.v ~crate (List.rev (name :: rev_mods)) in
            let g, env = lower_generics base_env generics in
            let repr = Option.map (lower_ty env) repr in
            decls :=
              Decl.Type { Decl.ty_path = path; ty_generics = g; ty_repr = repr; ty_span = span }
              :: !decls
        | Ast.RTrait { name; generics; supertraits; assocs; methods; span; attrs } ->
            let path = Path.v ~crate (List.rev (name :: rev_mods)) in
            let env0 = { base_env with self_ty = Some (Ty.Param "Self") } in
            let g, env = lower_generics env0 generics in
            let supers =
              List.map
                (fun (b : Ast.raw_bound) ->
                  lower_trait_ref env b.bound_name b.bound_args b.bound_span)
                supertraits
            in
            let lower_assoc (a : Ast.raw_assoc_decl) : Decl.assoc_ty_decl =
              let ag, aenv = lower_generics env a.ra_generics in
              let bounds =
                List.map
                  (fun (b : Ast.raw_bound) ->
                    lower_trait_ref aenv b.bound_name b.bound_args b.bound_span)
                  a.ra_bounds
              in
              {
                Decl.assoc_name = a.ra_name;
                assoc_generics = ag;
                assoc_bounds = bounds;
                assoc_default = Option.map (lower_ty aenv) a.ra_default;
              }
            in
            let on_unimpl =
              List.find_map (fun (Ast.On_unimplemented m) -> Some m) attrs
            in
            let lower_method (m : Ast.raw_method) : Decl.method_sig =
              let mg, menv = lower_generics env m.rm_generics in
              {
                Decl.m_name = m.rm_name;
                m_generics = mg;
                m_inputs = List.map (lower_ty menv) m.rm_inputs;
                m_output = Option.fold ~none:Ty.Unit ~some:(lower_ty menv) m.rm_output;
                m_span = m.rm_span;
              }
            in
            decls :=
              Decl.Trait
                {
                  Decl.tr_path = path;
                  tr_generics = g;
                  tr_assocs = List.map lower_assoc assocs;
                  tr_methods = List.map lower_method methods;
                  tr_supertraits = supers;
                  tr_span = span;
                  tr_on_unimplemented = on_unimpl;
                }
              :: !decls
        | Ast.RFn { name; generics; inputs; param_names; output; body; span } ->
            let path = Path.v ~crate (List.rev (name :: rev_mods)) in
            let g, env = lower_generics base_env generics in
            decls :=
              Decl.Fn
                {
                  Decl.fn_path = path;
                  fn_generics = g;
                  fn_inputs = List.map (lower_ty env) inputs;
                  fn_param_names = param_names;
                  fn_output = Option.fold ~none:Ty.Unit ~some:(lower_ty env) output;
                  fn_body = Option.map (List.map (lower_stmt env)) body;
                  fn_span = span;
                }
              :: !decls
        | Ast.RImpl { generics; trait_; self_ty; assoc_bindings; span } ->
            (* Bind the generic params first so the self type can use them,
               then resolve [Self] to the self type for where-clauses. *)
            let env_params =
              { base_env with bound_params = generics.rg_params @ base_env.bound_params }
            in
            let self = lower_ty env_params self_ty in
            let env_self = { env_params with self_ty = Some self } in
            let g, env = lower_generics env_self generics in
            let tr =
              lower_trait_ref env trait_.bound_name trait_.bound_args trait_.bound_span
            in
            let bindings =
              List.map
                (fun (bname, bg, bt) ->
                  let bgen, benv = lower_generics env bg in
                  {
                    Decl.bind_name = bname;
                    bind_generics = bgen;
                    bind_ty = lower_ty benv bt;
                  })
                assoc_bindings
            in
            let id = !impl_counter in
            incr impl_counter;
            decls :=
              Decl.Impl
                {
                  Decl.impl_id = id;
                  impl_generics = g;
                  impl_trait = tr;
                  impl_self = self;
                  impl_assocs = bindings;
                  impl_span = span;
                  impl_crate = crate;
                }
              :: !decls
        | Ast.RGoal { pred; origin; span } ->
            let preds = lower_pred base_env pred in
            let goal_origin = Option.value ~default:"this expression" origin in
            List.iter
              (fun p ->
                goals := { Program.goal_pred = p; goal_span = span; goal_origin } :: !goals)
              preds)
      items
  in
  go Path.Local [] items;
  Program.build ~goals:(List.rev !goals) (List.rev !decls)

(** Parse and resolve a source string in one step. *)
let program_of_string ~file src : Program.t = lower (Parser.parse ~file src)

let load ~file src =
  match program_of_string ~file src with
  | p -> Ok p
  | exception Parser.Error e ->
      Error (Printf.sprintf "%s: parse error: %s" (Span.to_string e.span) e.message)
  | exception Error e ->
      Error (Printf.sprintf "%s: %s" (Span.to_string (error_span e)) (error_message e))

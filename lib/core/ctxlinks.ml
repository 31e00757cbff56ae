(** CtxtLinks (§3.2.3): auxiliary information accessible on demand.

    The inference tree shows only trait bounds and impl blocks; source
    locations, definition paths, and trait-implementor listings are
    resolved here when the user asks (command-click, hover, or the impl
    button in Fig. 8b). *)

open Trait_lang

(** Every definition path mentioned by a type, outermost first. *)
let paths_of_ty (ty : Ty.t) : Path.t list =
  Ty.fold
    (fun acc t ->
      match (t : Ty.t) with
      | Ctor (p, _) | FnItem (p, _, _) -> p :: acc
      | Dynamic tr -> tr.trait :: acc
      | Proj pr -> pr.proj_trait.trait :: acc
      | _ -> acc)
    [] ty
  |> List.rev

let paths_of_predicate (p : Predicate.t) : Path.t list =
  let tys =
    Predicate.fold_tys
      (fun acc t ->
        match (t : Ty.t) with
        | Ctor (p, _) | FnItem (p, _, _) -> p :: acc
        | Dynamic tr -> tr.trait :: acc
        | _ -> acc)
      [] p
    |> List.rev
  in
  let trait_ = Option.to_list (Predicate.trait_path p) in
  trait_ @ tys

let paths_of_node (n : Proof_tree.node) : Path.t list =
  match n.kind with
  | Proof_tree.Goal g -> paths_of_predicate g.pred
  | Proof_tree.Cand c -> (
      match c.source with
      | Solver.Trace.Cand_impl impl ->
          impl.impl_trait.trait :: paths_of_ty impl.impl_self
      | Solver.Trace.Cand_param_env p -> paths_of_predicate p
      | Solver.Trace.Cand_builtin _ -> [])

(** Hover minibuffer: deduplicated fully-qualified paths (Fig. 7a). *)
let definition_paths (n : Proof_tree.node) : string list =
  paths_of_node n
  |> List.map (fun p -> Path.to_string ~explicit_crate:true p)
  |> List.sort_uniq String.compare

(** A jump target: a symbol the user can command-click, with the span of
    its definition. *)
type jump = { symbol : Path.t; target : Span.t }

let jump_targets (program : Program.t) (n : Proof_tree.node) : jump list =
  paths_of_node n
  |> List.filter_map (fun p ->
         let span =
           match Program.find_type program p with
           | Some d -> Some d.ty_span
           | None -> (
               match Program.find_trait program p with
               | Some d -> Some d.tr_span
               | None -> Option.map (fun (f : Decl.fndecl) -> f.fn_span) (Program.find_fn program p))
         in
         Option.map (fun target -> { symbol = p; target }) span)

(** The impl-listing popup (Fig. 8b): every impl block of a trait,
    rendered as headers. *)
let impls_of_trait (program : Program.t) (trait_ : Path.t) : string list =
  Program.impls_of_trait program trait_
  |> List.map (fun i -> Pretty.impl ~cfg:Pretty.expanded i)

(** The span backing a node, if any: the goal's origin for roots, the
    impl block for impl candidates and where-clause subgoals. *)
let span_of_node (program : Program.t) (n : Proof_tree.node) : Span.t option =
  match n.kind with
  | Proof_tree.Cand c -> (
      match c.source with
      | Solver.Trace.Cand_impl impl -> Some impl.impl_span
      | _ -> None)
  | Proof_tree.Goal g -> (
      match g.provenance with
      | Journal.Root { span; _ } -> Some span
      | Journal.Impl_where { impl_id; _ } ->
          Option.map
            (fun (i : Decl.impl) -> i.impl_span)
            (Program.find_impl program impl_id)
      | Journal.Supertrait p ->
          Option.map (fun (t : Decl.trdecl) -> t.tr_span) (Program.find_trait program p)
      | Journal.Param_env _ | Journal.Builtin_req _ | Journal.Normalization ->
          None)

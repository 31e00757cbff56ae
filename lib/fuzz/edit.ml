(* Program-level edit scripts (see edit.mli).  All ops rebuild via
   [Program.of_decls], so each version carries a fresh program stamp
   while every untouched declaration value is reused as-is. *)

open Trait_lang
module Rng = Stats.Rng

type op =
  | Remove_impl of int
  | Dup_impl of int
  | Drop_where of int
  | Swap_impls of int * int
  | Remove_goal of int
  | Dup_goal of int
  | Add_struct of int

let describe = function
  | Remove_impl i -> Printf.sprintf "remove impl #%d" i
  | Dup_impl i -> Printf.sprintf "duplicate impl #%d" i
  | Drop_where i -> Printf.sprintf "drop last where-clause of impl #%d" i
  | Swap_impls (i, j) -> Printf.sprintf "swap impls #%d and #%d" i j
  | Remove_goal i -> Printf.sprintf "remove goal #%d" i
  | Dup_goal i -> Printf.sprintf "duplicate goal #%d" i
  | Add_struct n -> Printf.sprintf "add unused struct ZEdit%d" n

(* Rebuild a program from (possibly modified) decl lists, preserving
   each family's declaration order — candidate order is observable. *)
let rebuild ~types ~traits ~fns ~impls ~goals : Program.t =
  Program.of_decls ~goals
    (List.map (fun d -> Decl.Type d) types
    @ List.map (fun d -> Decl.Trait d) traits
    @ List.map (fun d -> Decl.Fn d) fns
    @ List.map (fun d -> Decl.Impl d) impls)

let rebuild_impls p impls =
  rebuild ~types:(Program.types p) ~traits:(Program.traits p) ~fns:(Program.fns p) ~impls
    ~goals:(Program.goals p)

let remove_nth i l = List.filteri (fun k _ -> k <> i) l

let modify_nth i f l =
  List.mapi (fun k x -> if k = i then f x else x) l

let fresh_impl_id p =
  1 + List.fold_left (fun m (i : Decl.impl) -> max m i.impl_id) (-1) (Program.impls p)

let apply (p : Program.t) (op : op) : Program.t =
  let impls = Program.impls p and goals = Program.goals p in
  let n_impls = List.length impls and n_goals = List.length goals in
  match op with
  | Remove_impl i when i < n_impls -> rebuild_impls p (remove_nth i impls)
  | Dup_impl i when i < n_impls ->
      let d = List.nth impls i in
      rebuild_impls p (impls @ [ { d with Decl.impl_id = fresh_impl_id p } ])
  | Drop_where i when i < n_impls ->
      rebuild_impls p
        (modify_nth i
           (fun (d : Decl.impl) ->
             match List.rev d.impl_generics.where_clauses with
             | [] -> d
             | _ :: rest ->
                 {
                   d with
                   impl_generics = { d.impl_generics with where_clauses = List.rev rest };
                 })
           impls)
  | Swap_impls (i, j) when i < n_impls && j < n_impls && i <> j ->
      let a = List.nth impls i and b = List.nth impls j in
      rebuild_impls p
        (List.mapi (fun k d -> if k = i then b else if k = j then a else d) impls)
  | Remove_goal i when i < n_goals -> Program.with_goals (remove_nth i goals) p
  | Dup_goal i when i < n_goals -> Program.add_goal (List.nth goals i) p
  | Add_struct n -> (
      let name = Printf.sprintf "ZEdit%d" n in
      let decl : Decl.tydecl =
        {
          ty_path = Path.local [ name ];
          ty_generics = Decl.no_generics;
          ty_repr = None;
          ty_span = Span.dummy;
        }
      in
      try Program.add_type decl p with Program.Duplicate_decl _ -> p)
  | Remove_impl _ | Dup_impl _ | Drop_where _ | Swap_impls _ | Remove_goal _ | Dup_goal _ -> p

let gen_op rng (p : Program.t) : op =
  let impls = Program.impls p in
  let n_impls = List.length impls in
  let n_goals = List.length (Program.goals p) in
  let impl () = Rng.int rng (max 1 n_impls) in
  (* Only where-free impls are safe to duplicate: their candidates are
     leaves, so the dup adds ambiguity without multiplying recursive
     unfolds (duplicating an impl on a recursion chain — e.g. a cycle
     gadget — turns a depth-d path into a 2^d candidate tree). *)
  let dup_safe =
    List.filteri (fun _ (d : Decl.impl) -> d.impl_generics.where_clauses = []) impls
    |> List.length
  in
  let dup_pick () =
    let nth = Rng.int rng (max 1 dup_safe) in
    let rec find i seen = function
      | [] -> 0
      | (d : Decl.impl) :: rest ->
          if d.impl_generics.where_clauses = [] then
            if seen = nth then i else find (i + 1) (seen + 1) rest
          else find (i + 1) seen rest
    in
    find 0 0 impls
  in
  match Rng.int rng 7 with
  | 0 when n_impls > 0 -> Remove_impl (impl ())
  | 1 when dup_safe > 0 -> Dup_impl (dup_pick ())
  | 2 when n_impls > 0 -> Drop_where (impl ())
  | 3 when n_impls > 1 -> Swap_impls (impl (), impl ())
  | 4 when n_goals > 1 -> Remove_goal (Rng.int rng n_goals)
  | 5 when n_goals > 0 -> Dup_goal (Rng.int rng n_goals)
  | _ -> Add_struct (Rng.int rng 1000)

let script ~seed ~steps (p : Program.t) : (op * Program.t) list =
  let rng = Rng.create ~seed in
  let rec go acc p k =
    if k = 0 then List.rev acc
    else
      let op = gen_op rng p in
      let p' = apply p op in
      go ((op, p') :: acc) p' (k - 1)
  in
  go [] p steps

(** The raw trait-inference trace: the AND/OR tree of Fig. 5.

    G ⟶ p × {C̄} × R   (predicate evaluation)
    C ⟶ impl × {Ḡ} × R (candidate evaluation)

    A predicate evaluation succeeds if one of its candidates succeeds,
    which in turn succeeds if all of its nested predicates succeed.

    Unlike the idealized tree the paper visualizes, the raw trace keeps the
    warts of §4: stateful normalization nodes, speculative predicates, and
    overflow markers.  The [Argus.Extract] pass cleans these up. *)

open Trait_lang

type goal_node = {
  gid : int;  (** stable journal node ID ({!Journal.fresh_id}) *)
  pred : Predicate.t;  (** resolved as of evaluation start *)
  result : Res.t;
  candidates : cand_node list;
  depth : int;
  provenance : Journal.prov;
  flags : Journal.flag list;
}

and cand_source =
  | Cand_impl of Decl.impl
  | Cand_param_env of Predicate.t  (** an in-scope where-clause *)
  | Cand_builtin of string  (** e.g. "fn-pointer", "tuple", "sized" *)

and cand_node = {
  cid : int;  (** stable journal node ID ({!Journal.fresh_id}) *)
  source : cand_source;
  cand_result : Res.t;
  subgoals : goal_node list;
  failure : Journal.unify_failure option;
      (** why this candidate was rejected before/after its subgoals:
          head mismatch or associated-type term mismatch *)
}

let has_flag f (g : goal_node) = List.mem f g.flags

let is_overflow g = has_flag Journal.Overflow g || has_flag Journal.Depth_limit g

(** Total number of goal nodes in the tree (the paper's Fig. 12b measures
    tree size in nodes). *)
let rec size (g : goal_node) =
  1 + List.fold_left (fun acc c -> acc + List.fold_left (fun a s -> a + size s) 0 c.subgoals) 0 g.candidates

let rec depth_of (g : goal_node) =
  1
  + List.fold_left
      (fun acc c -> List.fold_left (fun a s -> max a (depth_of s)) acc c.subgoals)
      0 g.candidates

(** Pre-order fold over all goal nodes. *)
let rec fold_goals f acc (g : goal_node) =
  let acc = f acc g in
  List.fold_left (fun acc c -> List.fold_left (fold_goals f) acc c.subgoals) acc g.candidates

(** All failing leaves: failed goals with no failing sub-structure —
    the "innermost failed predicates" of the bottom-up view. *)
let failed_leaves (g : goal_node) =
  fold_goals
    (fun acc node ->
      match node.result with
      | Res.No | Res.Maybe ->
          let has_failing_child =
            List.exists
              (fun c ->
                (not (Res.is_yes c.cand_result))
                && List.exists (fun s -> not (Res.is_yes s.result)) c.subgoals)
              node.candidates
          in
          if has_failing_child then acc else node :: acc
      | Res.Yes -> acc)
    [] g
  |> List.rev

let cand_source_name = function
  | Cand_impl _ -> "impl"
  | Cand_param_env _ -> "where-clause"
  | Cand_builtin b -> "builtin:" ^ b

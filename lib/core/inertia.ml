(** The inertia heuristic (§3.3, Appendix A.1).

    "Our theory is that the correct fix to a failed trait error on average
    involves the fewest modifications to program elements."  Inertia
    models the complexity of the patch required to fix a failed predicate.
    The categories and weights below are a verbatim port of the Rust
    [GoalKind] enum in the paper's Appendix A.1. *)

open Trait_lang

type location = Local | External

type goal_kind =
  | Trait of { self_ : location; trait_ : location }
      (** an ordinary trait bound; cost depends on the orphan rule *)
  | TyChange  (** a type must change (e.g. an associated-type mismatch) *)
  | FnToTrait of { trait_ : location; arity : int }
      (** a function item/pointer must implement a non-[Fn] trait *)
  | TyAsCallable of { arity : int }  (** a non-function used where [Fn] is required *)
  | DeleteFnParams of { delta : int }
  | AddFnParams of { delta : int }
  | IncorrectParams of { arity : int }
  | Misc

(** Appendix A.1, [GoalKind::weight], transcribed. *)
let weight : goal_kind -> int = function
  | Trait { self_ = Local; trait_ = Local } -> 0
  | Trait { self_ = Local; trait_ = External }
  | Trait { self_ = External; trait_ = Local }
  | FnToTrait { trait_ = Local; _ } ->
      1
  | Trait { self_ = External; trait_ = External } -> 2
  | TyChange -> 4
  | IncorrectParams { arity = delta } | AddFnParams { delta } | DeleteFnParams { delta } ->
      5 * delta
  | FnToTrait { trait_ = External; arity } | TyAsCallable { arity } -> 4 + 5 * arity
  | Misc -> 50

let location_of_crate : Path.crate -> location = function
  | Path.Local -> Local
  | Path.External _ -> External

(** Locate a type for the orphan rule: where would you edit to change its
    head?  Structural heads (tuples, references, primitives, [dyn]) and
    rigid parameters cannot be "moved", so they behave as external. *)
let location_of_ty (ty : Ty.t) : location =
  match Ty.head_crate ty with
  | Some c -> location_of_crate c
  | None -> ( match ty with Ty.Param _ -> Local | _ -> External)

let is_fn_trait (trait_path : Path.t) =
  match Path.name trait_path with "Fn" | "FnMut" | "FnOnce" -> true | _ -> false

let fn_arity (ty : Ty.t) =
  match ty with Ty.FnPtr (args, _) | Ty.FnItem (_, args, _) -> Some (List.length args) | _ -> None

(** Classify a failing predicate into one of the eight categories, from
    the structure of the predicate alone (§3.3). *)
let classify (p : Predicate.t) : goal_kind =
  match p with
  | Predicate.Trait { self_ty; trait_ref } -> (
      let trait_loc = location_of_crate (Path.crate trait_ref.trait) in
      match (fn_arity self_ty, is_fn_trait trait_ref.trait) with
      | Some arity, false ->
          (* a function needing a non-Fn trait: the §2.3
             [{run_timer}: System] shape *)
          FnToTrait { trait_ = trait_loc; arity }
      | None, true ->
          (* a non-function where a callable is required *)
          let arity =
            match trait_ref.args with
            | [ Ty.Ty (Ty.Tuple ts) ] -> List.length ts
            | [ Ty.Ty Ty.Unit ] -> 0
            | [ Ty.Ty _ ] -> 1
            | _ -> 1
          in
          TyAsCallable { arity }
      | Some actual, true -> (
          (* a function used as a callable but rejected: compare arities *)
          let expected =
            match trait_ref.args with
            | [ Ty.Ty (Ty.Tuple ts) ] -> Some (List.length ts)
            | [ Ty.Ty Ty.Unit ] -> Some 0
            | [ Ty.Ty _ ] -> Some 1
            | _ -> None
          in
          match expected with
          | Some e when e > actual -> AddFnParams { delta = e - actual }
          | Some e when e < actual -> DeleteFnParams { delta = actual - e }
          | Some e -> IncorrectParams { arity = e }
          | None -> IncorrectParams { arity = actual })
      | None, false ->
          Trait { self_ = location_of_ty self_ty; trait_ = trait_loc })
  | Predicate.Projection _ | Predicate.NormalizesTo _ ->
      (* an associated type resolved to the wrong type: fix = change a
         type definition *)
      TyChange
  | Predicate.TypeOutlives _ | Predicate.RegionOutlives _ -> Misc
  | Predicate.WellFormed _ | Predicate.ObjectSafe _ | Predicate.ConstEvaluatable _ -> Misc

let score (p : Predicate.t) = weight (classify p)

(* ------------------------------------------------------------------ *)
(* The full pipeline of Fig. 10:
   tree → MCSes (DNF) → classify → weight → sort. *)

type scored_set = {
  predicates : (Predicate.t * Proof_tree.node_id * goal_kind * int) list;
  total : int;  (** the conjunct's score: sum of predicate scores *)
}

type ranking = {
  sets : scored_set list;  (** MCSes, cheapest first *)
  leaves : (Proof_tree.node_id * int) list;
      (** every failing leaf with its best (lowest) containing-set score,
          then its own weight — the bottom-up display order *)
}

let sp_rank = Telemetry.span "inertia.rank"
let c_mcs = Telemetry.counter "inertia.mcs.max"

let rank (tree : Proof_tree.t) : ranking =
  let tok = Telemetry.begin_ sp_rank in
  let formula, it = Formula.of_tree tree in
  let dnf = Dnf.of_formula formula in
  Telemetry.record_max c_mcs (Dnf.num_conjuncts dnf);
  let scored =
    List.map
      (fun conj ->
        let predicates =
          List.map
            (fun v ->
              let p = Formula.var_predicate it v in
              let k = classify p in
              (p, Formula.var_node it v, k, weight k))
            conj
        in
        let total = List.fold_left (fun a (_, _, _, w) -> a + w) 0 predicates in
        { predicates; total })
      dnf
  in
  let sets = List.stable_sort (fun a b -> Int.compare a.total b.total) scored in
  (* Order leaves by (best containing MCS total, own weight). *)
  let best : (Proof_tree.node_id, int * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun s ->
      List.iter
        (fun (_, node, _, w) ->
          let cur = Hashtbl.find_opt best node in
          let cand = (s.total, w) in
          match cur with
          | Some c when compare c cand <= 0 -> ()
          | _ -> Hashtbl.replace best node cand)
        s.predicates)
    sets;
  let leaves =
    Hashtbl.fold (fun node (total, w) acc -> (node, total, w) :: acc) best []
    |> List.stable_sort (fun (n1, t1, w1) (n2, t2, w2) ->
           match Int.compare t1 t2 with
           | 0 -> ( match Int.compare w1 w2 with 0 -> Int.compare n1 n2 | c -> c)
           | c -> c)
    |> List.map (fun (node, _, w) -> (node, w))
  in
  Telemetry.end_ sp_rank tok;
  { sets; leaves }

(** The bottom-up ordering of failing leaf nodes under a ranking of the
    same tree.  Leaves that never appear in any MCS (e.g. only below
    stateful nodes) are appended at the end in tree order. *)
let leaves_of_ranking (tree : Proof_tree.t) (ranking : ranking) : Proof_tree.node list =
  let ranked = List.map fst ranking.leaves in
  let all_leaves = Proof_tree.failed_leaves tree in
  let in_ranked =
    List.filter_map
      (fun id -> List.find_opt (fun (n : Proof_tree.node) -> n.id = id) all_leaves)
      ranked
  in
  let rest =
    List.filter
      (fun (n : Proof_tree.node) -> not (List.mem n.id ranked))
      all_leaves
  in
  in_ranked @ rest

(** The bottom-up ordering of failing leaf nodes under inertia. *)
let sorted_leaves (tree : Proof_tree.t) : Proof_tree.node list =
  leaves_of_ranking tree (rank tree)

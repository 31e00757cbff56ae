(** The idealized trait inference tree that Argus visualizes.

    This is the cleaned-up AND/OR tree of Fig. 5, produced from the raw
    solver {!Solver.Trace} by {!Extract}.  It is stored as a flat arena
    with parent pointers, because the two view projections walk it in
    opposite directions: top-down follows [children], bottom-up starts
    from {!failed_leaves} and follows [parent]. *)

open Trait_lang

type node_id = int

type goal_info = {
  pred : Predicate.t;
  result : Solver.Res.t;
  provenance : Journal.prov;
  is_overflow : bool;
  is_stateful : bool;  (** a captured [NormalizesTo] node (§4) *)
  is_user_visible : bool;  (** hidden unless the predicate toggle is on *)
  depth : int;  (** goal depth in the inference tree *)
  trace_id : int;  (** journal event ID of the originating goal; < 0 if none *)
}

type cand_info = {
  source : Solver.Trace.cand_source;
  cand_result : Solver.Res.t;
  failure : Journal.unify_failure option;
  cand_trace_id : int;  (** journal event ID of the candidate; < 0 if none *)
}

type kind = Goal of goal_info | Cand of cand_info

type node = { id : node_id; kind : kind; parent : node_id option; children : node_id list }

type t = { nodes : node array; root : node_id }

let root t = t.nodes.(t.root)
let node t id = t.nodes.(id)
let size t = Array.length t.nodes

let parent t (n : node) = Option.map (fun p -> t.nodes.(p)) n.parent
let children t (n : node) = List.map (fun c -> t.nodes.(c)) n.children

let result_of (n : node) =
  match n.kind with Goal g -> g.result | Cand c -> c.cand_result

let is_goal (n : node) = match n.kind with Goal _ -> true | Cand _ -> false

let goal_info (n : node) = match n.kind with Goal g -> Some g | Cand _ -> None
let cand_info (n : node) = match n.kind with Cand c -> Some c | Goal _ -> None

let is_failed (n : node) = not (Solver.Res.is_yes (result_of n))

(** Number of goal nodes (Fig. 12b's tree-size metric). *)
let goal_count t =
  Array.fold_left (fun acc n -> if is_goal n then acc + 1 else acc) 0 t.nodes

let fold f acc t = Array.fold_left f acc t.nodes

(** All failed goal nodes. *)
let failed_goals t =
  fold (fun acc n -> if is_goal n && is_failed n then n :: acc else acc) [] t |> List.rev

(** The innermost failed goals: failed goals none of whose descendant
    goals fail.  These are the roots of the bottom-up view (§3.2.1) and
    the candidate root causes the inertia heuristic ranks. *)
let failed_leaves t =
  let rec has_failed_descendant (n : node) =
    List.exists
      (fun cid ->
        let c = t.nodes.(cid) in
        match c.kind with
        | Goal _ -> is_failed c || has_failed_descendant c
        | Cand _ -> has_failed_descendant c)
      n.children
  in
  failed_goals t |> List.filter (fun n -> not (has_failed_descendant n))

(** The goal-ancestors of a node, innermost first, ending at the root. *)
let ancestors t (n : node) =
  let rec up acc id =
    match t.nodes.(id).parent with
    | None -> List.rev acc
    | Some p ->
        let pn = t.nodes.(p) in
        up (if is_goal pn then pn :: acc else acc) p
  in
  List.rev (up [] n.id)

(** Distance in goal steps between two nodes along parent links (used by
    the Fig. 12a comparison against the compiler's reported error). *)
let goal_distance t (a : node) (b : node) =
  let path_to_root (n : node) =
    let rec up acc id =
      let node = t.nodes.(id) in
      let acc = if is_goal node then id :: acc else acc in
      match node.parent with None -> acc | Some p -> up acc p
    in
    up [] n.id
  in
  let pa = path_to_root a and pb = path_to_root b in
  (* longest common prefix from the root *)
  let rec common n (xs : int list) (ys : int list) =
    match (xs, ys) with
    | x :: xs', y :: ys' when x = y -> common (n + 1) xs' ys'
    | _ -> n
  in
  let c = common 0 pa pb in
  List.length pa - c + (List.length pb - c)

(* ------------------------------------------------------------------ *)
(* Construction *)

type builder = { mutable rev_nodes : node list; mutable next : int }

let builder () = { rev_nodes = []; next = 0 }

let add_node b ~parent kind children_of =
  let id = b.next in
  b.next <- id + 1;
  (* children are added by recursion; we patch the list afterwards *)
  let children = children_of id in
  b.rev_nodes <- { id; kind; parent; children } :: b.rev_nodes;
  id

(* Ids are dense, [0 .. next - 1], each added once: fill the arena by
   id directly. *)
let build b ~root =
  match b.rev_nodes with
  | [] -> { nodes = [||]; root }
  | last :: _ ->
      let nodes = Array.make b.next last in
      List.iter (fun n -> nodes.(n.id) <- n) b.rev_nodes;
      { nodes; root }

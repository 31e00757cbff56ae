(** The pure state machine behind the Argus interface.

    The paper's interface principles are interaction semantics over the
    proof tree; this module implements them front-end-agnostically (the
    paper notes the interface "can also be embedded in other contexts").
    The terminal renderer ({!Render}) and the interactive CLI drive this
    state; a graphical front end could drive it identically.

    - CollapseSeq (§3.2.1): [expanded] tracks which nodes are unfolded;
      both views start collapsed and are unfolded node by node.
    - ShortTys (§3.2.2): types render shortened by default;
      [ty_expanded] marks nodes whose ellipses were clicked open, and
      [show_paths] switches to fully-qualified paths.
    - CtxtLinks (§3.2.3): [hovered] selects the node whose definition
      paths appear in the minibuffer.
    - TreeData (§3.2.4): [direction] chooses the bottom-up or top-down
      projection; bottom-up roots are ordered by [ranker]. *)

module IntSet = Set.Make (Int)

type direction = Bottom_up | Top_down

type t = {
  tree : Proof_tree.t;
  direction : direction;
  expanded : IntSet.t;
  ty_expanded : IntSet.t;
  show_paths : bool;
  show_all_predicates : bool;  (** the §4 internal-predicate toggle *)
  hovered : Proof_tree.node_id option;
  ranker : Heuristics.ranker;
  others_threshold : int;
      (** bottom-up roots beyond this rank fold under "Other failures ..."
          (Fig. 9a) *)
  others_expanded : bool;
  ranked : Proof_tree.node list Lazy.t;
      (** [ranker.rank tree]: depends only on the tree and the ranker, so
          it is computed once per (tree, ranker), not on every render *)
}

let c_rankings = Telemetry.counter "view.rankings"

let rank_lazily (ranker : Heuristics.ranker) tree =
  lazy
    (Telemetry.incr c_rankings;
     ranker.rank tree)

let create ?(direction = Bottom_up) ?(ranker = Heuristics.by_inertia)
    ?(others_threshold = 3) tree =
  {
    tree;
    direction;
    expanded = IntSet.empty;
    ty_expanded = IntSet.empty;
    show_paths = false;
    show_all_predicates = false;
    hovered = None;
    ranker;
    others_threshold;
    others_expanded = false;
    ranked = rank_lazily ranker tree;
  }

let is_expanded t id = IntSet.mem id t.expanded

let toggle_expand t id =
  {
    t with
    expanded =
      (if IntSet.mem id t.expanded then IntSet.remove id t.expanded
       else IntSet.add id t.expanded);
  }

let expand t id = { t with expanded = IntSet.add id t.expanded }
let collapse t id = { t with expanded = IntSet.remove id t.expanded }

let expand_all t =
  let all =
    Proof_tree.fold (fun acc (n : Proof_tree.node) -> IntSet.add n.id acc) IntSet.empty t.tree
  in
  { t with expanded = all; others_expanded = true }

let collapse_all t = { t with expanded = IntSet.empty }

let set_direction t direction = { t with direction }
let set_ranker t ranker = { t with ranker; ranked = rank_lazily ranker t.tree }

let is_ty_expanded t id = IntSet.mem id t.ty_expanded

(** Click an ellipsis: reveal the node's hidden generic arguments. *)
let toggle_ty_expand t id =
  {
    t with
    ty_expanded =
      (if IntSet.mem id t.ty_expanded then IntSet.remove id t.ty_expanded
       else IntSet.add id t.ty_expanded);
  }

let toggle_paths t = { t with show_paths = not t.show_paths }
let toggle_all_predicates t = { t with show_all_predicates = not t.show_all_predicates }

let hover t id = { t with hovered = Some id }
let unhover t = { t with hovered = None }

(** Unfold / fold the "Other failures ..." group of the bottom-up view. *)
let toggle_others t = { t with others_expanded = not t.others_expanded }

(** The pretty-printer configuration a node renders under. *)
let pretty_config t id : Trait_lang.Pretty.config =
  {
    Trait_lang.Pretty.default with
    qualified_paths = t.show_paths;
    max_depth = (if is_ty_expanded t id then 1000 else 2);
  }

(** Should this goal node be shown at all?  Stateful normalization nodes
    and compiler-internal predicates are hidden unless toggled (§4). *)
let node_visible t (n : Proof_tree.node) =
  match n.kind with
  | Proof_tree.Cand _ -> true
  | Proof_tree.Goal g ->
      t.show_all_predicates || (g.is_user_visible && not g.is_stateful)

(* ------------------------------------------------------------------ *)
(* Projections *)

(** Visible children of a node in the current direction.  In top-down this
    is the tree's child list (with hidden nodes' visible descendants
    spliced in); in bottom-up it is the parent chain. *)
let rec visible_children t (n : Proof_tree.node) : Proof_tree.node list =
  match t.direction with
  | Top_down ->
      Proof_tree.children t.tree n
      |> List.concat_map (fun c ->
             if node_visible t c then [ c ] else visible_children t c)
  | Bottom_up -> (
      match Proof_tree.parent t.tree n with
      | None -> []
      | Some p -> if node_visible t p then [ p ] else visible_children t p)

(** The roots of the current view: the tree root for top-down, the
    ranked failing leaves for bottom-up (all of them, before the
    "Other failures" fold is applied by the renderer). *)
let roots t : Proof_tree.node list =
  match t.direction with
  | Top_down -> [ Proof_tree.root t.tree ]
  | Bottom_up -> List.filter (node_visible t) (Lazy.force t.ranked)

(** Bottom-up roots split into (shown, folded-behind-"Other failures").
    Everything is shown when the fold is open, the view is top-down, or
    the tail would hold a single entry. *)
let roots_split t : Proof_tree.node list * Proof_tree.node list =
  let all = roots t in
  if t.direction = Top_down || t.others_expanded then (all, [])
  else begin
    let rec split n = function
      | rest when n = 0 -> ([], rest)
      | [] -> ([], [])
      | x :: rest ->
          let shown, folded = split (n - 1) rest in
          (x :: shown, folded)
    in
    let shown, folded = split t.others_threshold all in
    match folded with [ _ ] -> (all, []) | _ -> (shown, folded)
  end

(** Minibuffer content for the hovered node: the fully-qualified
    definition paths of the symbols it mentions (Fig. 7a). *)
let minibuffer t : string list =
  match t.hovered with
  | None -> []
  | Some id -> Ctxlinks.definition_paths (Proof_tree.node t.tree id)

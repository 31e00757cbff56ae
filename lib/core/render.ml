(** Terminal renderer for the Argus views.

    Produces structured lines (row index, node id, indent, text) so that
    the interactive CLI can map user actions ("expand row 3") back onto
    {!View_state} operations — the same contract the VS Code webview has
    with its DOM. *)

open Trait_lang

type expander = Open | Closed | Leaf

(** The synthetic row id of the "Other failures ..." fold (Fig. 9a);
    interactive front ends route expansion of this row to
    {!View_state.toggle_others} rather than a tree node. *)
let others_row : Proof_tree.node_id = -1

type line = {
  index : int;  (** display row number *)
  node : Proof_tree.node_id;  (** [others_row] for the fold row *)
  indent : int;
  expander : expander;
  text : string;
}

let icon (r : Solver.Res.t) =
  match r with Solver.Res.Yes -> "✓" | Solver.Res.No -> "✗" | Solver.Res.Maybe -> "?"

let goal_text (vs : View_state.t) (n : Proof_tree.node) (g : Proof_tree.goal_info) =
  let cfg = View_state.pretty_config vs n.id in
  let overflow = if g.is_overflow then " ⟳ overflow" else "" in
  Printf.sprintf "%s %s%s" (icon g.result) (Pretty.predicate ~cfg g.pred) overflow

let cand_text (vs : View_state.t) (n : Proof_tree.node) (c : Proof_tree.cand_info) =
  let cfg = View_state.pretty_config vs n.id in
  let base =
    match c.source with
    | Solver.Trace.Cand_impl impl -> Pretty.impl_header ~cfg impl
    | Solver.Trace.Cand_param_env p ->
        Printf.sprintf "where-clause `%s`" (Pretty.predicate ~cfg p)
    | Solver.Trace.Cand_builtin b -> Printf.sprintf "builtin impl (%s)" b
  in
  let failure =
    match c.failure with
    | Some f when not (Solver.Res.is_yes c.cand_result) ->
        Printf.sprintf " — %s" (Journal.failure_to_string ~cfg f)
    | _ -> ""
  in
  Printf.sprintf "%s %s%s" (icon c.cand_result) base failure

let node_text vs (n : Proof_tree.node) =
  match n.kind with
  | Proof_tree.Goal g -> goal_text vs n g
  | Proof_tree.Cand c -> cand_text vs n c

let sp_render = Telemetry.span "render"
let sp_view = Telemetry.span "render.view"
let c_lines = Telemetry.counter "render.lines.max"

(** Render the current view to lines.  [annot] appends a per-node
    suffix to the row text (e.g. [explain --timings] cost figures). *)
let view ?(annot : (Proof_tree.node -> string option) option) (vs : View_state.t) :
    line list =
  let tok = Telemetry.begin_ sp_view in
  let lines = ref [] in
  let index = ref 0 in
  let emit node indent expander text =
    let l = { index = !index; node; indent; expander; text } in
    incr index;
    lines := l :: !lines
  in
  let annotated n =
    let base = node_text vs n in
    match Option.bind annot (fun f -> f n) with
    | Some suffix -> base ^ "  [" ^ suffix ^ "]"
    | None -> base
  in
  let rec walk indent (n : Proof_tree.node) =
    let children = View_state.visible_children vs n in
    let expander =
      if children = [] then Leaf
      else if View_state.is_expanded vs n.id then Open
      else Closed
    in
    emit n.id indent expander (annotated n);
    if expander = Open then List.iter (walk (indent + 1)) children
  in
  let shown, folded = View_state.roots_split vs in
  List.iter (walk 0) shown;
  if folded <> [] then
    emit others_row 0 Closed (Printf.sprintf "Other failures (%d) ..." (List.length folded));
  let out = List.rev !lines in
  Telemetry.record_max c_lines (List.length out);
  Telemetry.end_ sp_view tok;
  out

let expander_glyph = function Open -> "▼" | Closed -> "▶" | Leaf -> "·"

let line_to_string (l : line) =
  Printf.sprintf "%s%s %s" (String.make (2 * l.indent) ' ') (expander_glyph l.expander) l.text

(** Render the whole view as one string, with the minibuffer (hover
    paths) appended when active. *)
let to_string ?annot (vs : View_state.t) : string =
  let tok = Telemetry.begin_ sp_render in
  let header =
    match vs.direction with
    | View_state.Bottom_up -> "── Bottom Up ──"
    | View_state.Top_down -> "── Top Down ──"
  in
  let body = view ?annot vs |> List.map line_to_string in
  let mini =
    match View_state.minibuffer vs with
    | [] -> []
    | paths -> "── Definition Paths ──" :: paths
  in
  let s = String.concat "\n" ((header :: body) @ mini) in
  Telemetry.end_ sp_render tok;
  s

(** Convenience: fully expanded one-shot rendering of a tree in a given
    direction (what the non-interactive CLI prints). *)
let tree_to_string ?(direction = View_state.Bottom_up) ?(ranker = Heuristics.by_inertia)
    ?(show_all_predicates = false) ?annot tree =
  let vs = View_state.create ~direction ~ranker tree in
  let vs = if show_all_predicates then View_state.toggle_all_predicates vs else vs in
  to_string ?annot (View_state.expand_all vs)

(** A standalone HTML embedding of the Argus view.

    §3.2: "The Argus interface can also be embedded in other contexts,
    such as in an online textbook to pedagogically illustrate the process
    of trait inference."  This renderer drives the same {!View_state}
    semantics into a self-contained HTML page: CollapseSeq becomes
    [<details>] disclosure, ShortTys becomes a hover [title] attribute
    carrying fully-qualified paths, and CtxtLinks becomes footnoted
    source locations — no JavaScript required. *)

open Trait_lang

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let style =
  {|
  body { font-family: ui-monospace, SFMono-Regular, Menlo, monospace;
         font-size: 14px; margin: 2rem; color: #1f2328; }
  h1 { font-size: 18px; } h2 { font-size: 15px; margin-top: 1.6em; }
  details { margin-left: 1.25rem; }
  summary { cursor: pointer; padding: 1px 4px; border-radius: 4px; }
  summary:hover { background: #f0f3f6; }
  .leaf { margin-left: 2.4rem; padding: 1px 4px; display: block; }
  .yes { color: #1a7f37; } .no { color: #cf222e; } .maybe { color: #9a6700; }
  .impl { color: #6639ba; }
  .overflow { background: #fff1e5; border-radius: 4px; padding: 0 4px; }
  .src { color: #656d76; font-size: 12px; margin-left: .6em; }
  .diag { background: #f6f8fa; border: 1px solid #d1d9e0; border-radius: 6px;
          padding: .8em 1em; white-space: pre-wrap; }
  .cost { color: #656d76; font-size: 12px; margin-left: .6em; }
  .heat-legend { color: #656d76; font-size: 12px; margin: .4em 0 1em; }
  .heat-legend .swatch { display: inline-block; width: 3.2em; height: .9em;
          border-radius: 3px; vertical-align: middle; margin: 0 .4em;
          background: linear-gradient(to right, rgba(255,92,0,0.08), rgba(255,92,0,0.8)); }
|}

let icon_of (r : Solver.Res.t) =
  match r with
  | Solver.Res.Yes -> ("✓", "yes")
  | Solver.Res.No -> ("✗", "no")
  | Solver.Res.Maybe -> ("?", "maybe")

(** One node rendered as its row content (without disclosure).  [heat]
    maps a node to a cost annotation: a relative intensity in [0,1]
    driving the background tint, and a label appended to the row. *)
let node_label ?(program : Program.t option)
    ?(heat : (Proof_tree.node -> (float * string) option) option)
    (vs : View_state.t) (n : Proof_tree.node) : string =
  let cfg = View_state.pretty_config vs n.id in
  let heat_style, heat_label =
    match Option.bind heat (fun f -> f n) with
    | Some (intensity, label) ->
        let alpha = 0.08 +. (0.72 *. Float.min 1.0 (Float.max 0.0 intensity)) in
        ( Printf.sprintf " style=\"background: rgba(255,92,0,%.3f); border-radius: 4px;\""
            alpha,
          Printf.sprintf "<span class=\"cost\">%s</span>" (escape label) )
    | None -> ("", "")
  in
  let title =
    (* the ShortTys minibuffer, as a hover tooltip *)
    match Ctxlinks.definition_paths n with
    | [] -> ""
    | paths -> Printf.sprintf " title=\"%s\"" (escape (String.concat ", " paths))
  in
  let src =
    match Option.bind program (fun p -> Ctxlinks.span_of_node p n) with
    | Some sp when not (Span.is_dummy sp) ->
        Printf.sprintf "<span class=\"src\">%s</span>" (escape (Span.to_string sp))
    | _ -> ""
  in
  match n.kind with
  | Proof_tree.Goal g ->
      let icon, cls = icon_of g.result in
      let overflow = if g.is_overflow then " <span class=\"overflow\">overflow ⟳</span>" else "" in
      Printf.sprintf "<span class=\"%s\"%s%s>%s %s</span>%s%s%s" cls title heat_style icon
        (escape (Pretty.predicate ~cfg g.pred))
        overflow src heat_label
  | Proof_tree.Cand c ->
      let icon, cls = icon_of c.cand_result in
      let body =
        match c.source with
        | Solver.Trace.Cand_impl impl -> Pretty.impl_header ~cfg impl
        | Solver.Trace.Cand_param_env p ->
            Printf.sprintf "where-clause `%s`" (Pretty.predicate ~cfg p)
        | Solver.Trace.Cand_builtin b -> Printf.sprintf "builtin impl (%s)" b
      in
      let failure =
        match c.failure with
        | Some f when not (Solver.Res.is_yes c.cand_result) ->
            Printf.sprintf " — %s" (escape (Journal.failure_to_string ~cfg f))
        | _ -> ""
      in
      Printf.sprintf "<span class=\"%s\"%s%s>%s <span class=\"impl\">%s</span>%s</span>%s%s" cls
        title heat_style icon (escape body) failure src heat_label

let rec render_node buf ?program ?heat (vs : View_state.t) (n : Proof_tree.node) =
  let children = View_state.visible_children vs n in
  if children = [] then
    Buffer.add_string buf
      (Printf.sprintf "<span class=\"leaf\">%s</span>\n" (node_label ?program ?heat vs n))
  else begin
    let open_attr = if View_state.is_expanded vs n.id then " open" else "" in
    Buffer.add_string buf (Printf.sprintf "<details%s><summary>%s</summary>\n" open_attr (node_label ?program ?heat vs n));
    List.iter (render_node buf ?program ?heat vs) children;
    Buffer.add_string buf "</details>\n"
  end

(** Render one view (in its current direction and expansion state). *)
let view_to_html ?program ?heat (vs : View_state.t) : string =
  let buf = Buffer.create 4096 in
  let shown, folded = View_state.roots_split vs in
  List.iter (render_node buf ?program ?heat vs) shown;
  if folded <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "<details><summary>Other failures (%d) ...</summary>\n"
         (List.length folded));
    List.iter (render_node buf ?program ?heat vs) folded;
    Buffer.add_string buf "</details>\n"
  end;
  Buffer.contents buf

(** A complete standalone page: the compiler diagnostic followed by both
    Argus views, first levels pre-expanded. *)
let page ?(title = "Argus trait error") ?heat ~(program : Program.t)
    ~(diagnostic : string option) (tree : Proof_tree.t) : string =
  let expand_first vs =
    (* open the first level of each root so the page is inviting *)
    List.fold_left
      (fun vs (r : Proof_tree.node) -> View_state.expand vs r.id)
      vs (View_state.roots vs)
  in
  let bu = expand_first (View_state.create ~direction:View_state.Bottom_up tree) in
  let td = expand_first (View_state.create ~direction:View_state.Top_down tree) in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Printf.sprintf
       "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>%s</title><style>%s</style></head><body>\n"
       (escape title) style);
  Buffer.add_string buf (Printf.sprintf "<h1>%s</h1>\n" (escape title));
  (match diagnostic with
  | Some d ->
      Buffer.add_string buf "<h2>What the compiler says</h2>\n";
      Buffer.add_string buf (Printf.sprintf "<div class=\"diag\">%s</div>\n" (escape d))
  | None -> ());
  (match heat with
  | Some _ ->
      Buffer.add_string buf
        "<div class=\"heat-legend\">cost heat: cool<span class=\"swatch\"></span>hot \
         — background tint is the node's share of the hottest self time; the \
         trailing figures are self and total wall time</div>\n"
  | None -> ());
  Buffer.add_string buf "<h2>Bottom up — likely root causes first</h2>\n";
  Buffer.add_string buf (view_to_html ~program ?heat bu);
  Buffer.add_string buf "<h2>Top down — the logical story</h2>\n";
  Buffer.add_string buf (view_to_html ~program ?heat td);
  Buffer.add_string buf "</body></html>\n";
  Buffer.contents buf

(* Moved verbatim from the CLI's explain subcommand (buffered instead of
   printed) so `argus explain` and the serve protocol's `explain` verb
   share one narrator. *)

let pp_pred = Trait_lang.Pretty.predicate

let cand_line buf ~indent (c : Journal.rcand) =
  let status =
    match c.Journal.rc_failure with
    | Some f ->
        Printf.sprintf "rejected: %s%s" (Journal.failure_to_string f)
          (match Journal.rejecting_unify c with
          | Some e -> Printf.sprintf " (unify event seq %d)" e.Journal.seq
          | None -> "")
    | None -> Journal.Res.to_string c.Journal.rc_result
  in
  Printf.bprintf buf "%s- candidate #%d %s — %s\n" indent c.Journal.rc_id
    (Journal.source_to_string c.Journal.rc_source)
    status

(* Under --timings, [prof] maps stable node IDs to wall-time figures
   attributed from the journal's ts_ns deltas. *)
let time_suffix prof id =
  match Option.bind prof (fun p -> Profile.heat_of_id p id) with
  | Some (_, label) -> Printf.sprintf "  [%s]" label
  | None -> ""

let print_goal buf ?prof (t : Journal.replay_tree) (g : Journal.rgoal) =
  let bpf fmt = Printf.bprintf buf fmt in
  bpf "goal #%d: %s\n" g.Journal.rg_id (pp_pred g.Journal.rg_pred);
  bpf "  result: %s\n" (Journal.Res.to_string g.Journal.rg_result);
  bpf "  depth: %d\n" g.Journal.rg_depth;
  bpf "  provenance: %s\n" (Journal.prov_to_string g.Journal.rg_prov);
  (match Option.bind prof (fun p -> Profile.heat_of_id p g.Journal.rg_id) with
  | Some (_, label) -> bpf "  time: %s\n" label
  | None -> ());
  if g.Journal.rg_flags <> [] then
    bpf "  flags: %s\n"
      (String.concat ", " (List.map Journal.flag_to_string g.Journal.rg_flags));
  (* ancestry: walk rt_parent to the root, innermost first *)
  let rec chain acc id =
    match Hashtbl.find_opt t.Journal.rt_parent id with
    | None -> acc
    | Some p -> chain (p :: acc) p
  in
  (match chain [] g.Journal.rg_id with
  | [] -> ()
  | ancestors ->
      bpf "  within:\n";
      List.iter
        (fun id ->
          match Hashtbl.find_opt t.Journal.rt_goals id with
          | Some a ->
              bpf "    goal #%d %s [%s]\n" id (pp_pred a.Journal.rg_pred)
                (Journal.Res.to_string a.Journal.rg_result)
          | None -> (
              match Hashtbl.find_opt t.Journal.rt_cands id with
              | Some c ->
                  bpf "    candidate #%d %s\n" id
                    (Journal.source_to_string c.Journal.rc_source)
              | None -> ()))
        ancestors);
  match g.Journal.rg_cands with
  | [] -> ()
  | cands ->
      bpf "  candidates (%d):\n" (List.length cands);
      List.iter (cand_line buf ~indent:"    ") cands

let print_cand buf ?prof (t : Journal.replay_tree) (c : Journal.rcand) =
  let bpf fmt = Printf.bprintf buf fmt in
  bpf "candidate #%d: %s\n" c.Journal.rc_id
    (Journal.source_to_string c.Journal.rc_source);
  bpf "  result: %s\n" (Journal.Res.to_string c.Journal.rc_result);
  (match Option.bind prof (fun p -> Profile.heat_of_id p c.Journal.rc_id) with
  | Some (_, label) -> bpf "  time: %s\n" label
  | None -> ());
  (match Hashtbl.find_opt t.Journal.rt_parent c.Journal.rc_id with
  | Some p -> (
      match Hashtbl.find_opt t.Journal.rt_goals p with
      | Some g -> bpf "  for goal: #%d %s\n" p (pp_pred g.Journal.rg_pred)
      | None -> ())
  | None -> ());
  (match c.Journal.rc_failure with
  | Some f ->
      bpf "  rejected: %s\n" (Journal.failure_to_string f);
      (match Journal.rejecting_unify c with
      | Some e -> bpf "  rejecting unify event: seq %d\n" e.Journal.seq
      | None -> ())
  | None -> ());
  bpf "  subgoals: %d\n" (List.length c.Journal.rc_subgoals)

let summary ?prof ~entries (tree : Journal.replay_tree) =
  let buf = Buffer.create 256 in
  let failed = List.concat_map Journal.failed_leaves tree.Journal.rt_roots in
  Printf.bprintf buf "journal: %d events, %d roots, %d goals, %d failed leaves\n"
    entries
    (List.length tree.Journal.rt_roots)
    (Hashtbl.length tree.Journal.rt_goals)
    (List.length failed);
  List.iter
    (fun (root : Journal.rgoal) ->
      Printf.bprintf buf "  root #%d [%s] %s%s\n" root.Journal.rg_id
        (Journal.Res.to_string root.Journal.rg_result)
        (pp_pred root.Journal.rg_pred)
        (time_suffix prof root.Journal.rg_id))
    tree.Journal.rt_roots;
  if failed <> [] then
    Buffer.add_string buf
      "hint: `argus explain --failures` narrates the failed leaves; `argus \
       explain --node ID` drills into one node\n";
  Buffer.contents buf

let failures ?prof (tree : Journal.replay_tree) =
  let buf = Buffer.create 256 in
  List.iter
    (fun (root : Journal.rgoal) ->
      match Journal.failed_leaves root with
      | [] -> ()
      | leaves ->
          Printf.bprintf buf "root #%d: %s [%s]%s\n" root.Journal.rg_id
            (pp_pred root.Journal.rg_pred)
            (Journal.Res.to_string root.Journal.rg_result)
            (time_suffix prof root.Journal.rg_id);
          List.iter
            (fun (g : Journal.rgoal) ->
              Printf.bprintf buf "  failed leaf #%d: %s%s\n" g.Journal.rg_id
                (pp_pred g.Journal.rg_pred)
                (time_suffix prof g.Journal.rg_id);
              List.iter
                (fun (c : Journal.rcand) ->
                  if c.Journal.rc_failure <> None then cand_line buf ~indent:"    " c)
                g.Journal.rg_cands)
            leaves)
    tree.Journal.rt_roots;
  Buffer.contents buf

let node ?prof (tree : Journal.replay_tree) id =
  match
    ( Hashtbl.find_opt tree.Journal.rt_goals id,
      Hashtbl.find_opt tree.Journal.rt_cands id )
  with
  | Some g, _ ->
      let buf = Buffer.create 256 in
      print_goal buf ?prof tree g;
      Ok (Buffer.contents buf)
  | None, Some c ->
      let buf = Buffer.create 256 in
      print_cand buf ?prof tree c;
      Ok (Buffer.contents buf)
  | None, None -> Error (Printf.sprintf "no event node with ID %d" id)

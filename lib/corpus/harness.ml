(** Corpus driver: loading programs, solving them, extracting trees, and
    resolving ground-truth root causes.

    An {!entry} corresponds to one program in the evaluation dataset
    (§5.2.1): source text, the ground-truth root-cause predicate (written
    in the same surface syntax and resolved against the same program), and
    metadata mirroring the paper's task taxonomy. *)

open Trait_lang

type library_kind = Real | Synthetic

type entry = {
  id : string;
  title : string;
  library : string;  (** diesel_lite / bevy_lite / axum_lite / brew / space / std *)
  kind : library_kind;
  description : string;
  source : string;
  root_cause : string;  (** surface-syntax predicate of the ground-truth fault *)
  fix_hint : string;
}

exception Corpus_error of string

(** Parse and resolve an entry's program. *)
let load (e : entry) : Program.t =
  try Resolve.program_of_string ~file:(e.id ^ ".rs") e.source with
  | Parser.Error pe ->
      raise
        (Corpus_error
           (Printf.sprintf "%s: parse error at %s: %s" e.id (Span.to_string pe.span)
              pe.message))
  | Resolve.Error re ->
      raise
        (Corpus_error
           (Printf.sprintf "%s: resolve error at %s: %s" e.id
              (Span.to_string (Resolve.error_span re))
              (Resolve.error_message re)))

(** Resolve the entry's ground-truth predicate in the context of its own
    program, by re-resolving the source with the root cause appended as a
    marked goal. *)
let root_cause_pred (e : entry) : Predicate.t =
  let marker = "__root_cause__" in
  let augmented = e.source ^ "\ngoal " ^ e.root_cause ^ " from \"" ^ marker ^ "\";\n" in
  let program =
    try Resolve.program_of_string ~file:(e.id ^ ".rs") augmented
    with Resolve.Error re ->
      raise
        (Corpus_error
           (Printf.sprintf "%s: root cause does not resolve: %s" e.id
              (Resolve.error_message re)))
  in
  match
    List.find_opt (fun (g : Program.goal) -> g.goal_origin = marker) (Program.goals program)
  with
  | Some g -> g.goal_pred
  | None -> raise (Corpus_error (e.id ^ ": root-cause goal not found"))

(** Solve an entry's program and extract the proof tree of its first
    failing goal. *)
let solve (e : entry) : Program.t * Solver.Obligations.report =
  let program = load e in
  (program, Solver.Obligations.solve_program program)

let failed_tree (e : entry) : Program.t * Argus.Proof_tree.t =
  let program, report = solve e in
  match Solver.Obligations.errors report with
  | r :: _ -> (program, Argus.Extract.of_report r)
  | [] -> raise (Corpus_error (e.id ^ ": expected a trait error but all goals proved"))

(** Does the ground-truth predicate appear among the tree's failing
    leaves?  (Sanity invariant for every suite entry.) *)
let root_cause_is_leaf (e : entry) : bool =
  let _, tree = failed_tree e in
  let rc = root_cause_pred e in
  Argus.Proof_tree.failed_leaves tree
  |> List.exists (fun (n : Argus.Proof_tree.node) ->
         match n.kind with
         | Argus.Proof_tree.Goal g -> Predicate.equal g.pred rc
         | _ -> false)

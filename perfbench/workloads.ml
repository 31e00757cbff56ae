(** Every workload, in the order [--workload all] runs them. *)
let all =
  [ Check_corpus.workload; Edit_mega.workload; Serve_editor.workload; Views_large.workload ]

let find name = List.find_opt (fun w -> Workload.name w = name) all

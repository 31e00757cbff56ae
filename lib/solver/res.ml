(** Evaluation results: {!Journal.Res}, named here as the solver's own. *)

include Journal.Res

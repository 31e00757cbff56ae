(** Corpus driver: loading programs, solving them, extracting trees, and
    resolving ground-truth root causes (§5.2.1). *)

open Trait_lang

type library_kind = Real | Synthetic

type entry = {
  id : string;
  title : string;
  library : string;  (** diesel_lite / bevy_lite / axum_lite / brew / space / std *)
  kind : library_kind;
  description : string;
  source : string;  (** L_TRAIT surface syntax *)
  root_cause : string;  (** surface-syntax predicate of the ground-truth fault *)
  fix_hint : string;
}

exception Corpus_error of string

(** Parse and resolve an entry's program.
    @raise Corpus_error with a readable message on front-end errors *)
val load : entry -> Program.t

(** Resolve the ground-truth predicate in the entry's own context. *)
val root_cause_pred : entry -> Predicate.t

(** Solve the program to fixpoint. *)
val solve : entry -> Program.t * Solver.Obligations.report

(** The extracted proof tree of the first failing goal.
    @raise Corpus_error if every goal proves *)
val failed_tree : entry -> Program.t * Argus.Proof_tree.t

(** Sanity invariant for suite entries: the ground truth appears among
    the failing leaves. *)
val root_cause_is_leaf : entry -> bool

(** {1 One journalled solve} *)

type unit_result = {
  b_entry : entry;
  b_program : Program.t;
  b_report : Solver.Obligations.report;
  b_journal : Journal.entry list;
      (** recorded only when [~journal:true]; timestamps normalized
          to 0 so the stream is wall-clock-independent *)
}

(** Solve one entry with the domain's journal/snapshot state reset
    first, so its trace IDs and journal stream are a pure function of
    the entry. *)
val solve_unit : journal:bool -> entry -> unit_result

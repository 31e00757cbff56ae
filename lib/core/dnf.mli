(** Disjunctive-normal-form normalization of failure formulas.

    Each conjunct of the DNF is a *minimum correction subset* (MCS): a
    set of failing predicates that, if they held, would make the root
    obligation provable (§3.3).  Normalization is the exponential step
    whose cost Fig. 12b measures; deduplication and absorption keep it
    tractable on realistic trees and make every conjunct minimal. *)

(** A conjunct: a sorted, deduplicated list of variable ids. *)
type conjunct = int list

(** A DNF.  [[]] is unsatisfiable; [[[]]] is trivially true. *)
type t = conjunct list

(** [conj_subset a b]: every variable of [a] is in [b]. *)
val conj_subset : conjunct -> conjunct -> bool

(** Normalize a formula: its minimal conjuncts, each once, in
    lexicographic order. *)
val of_formula : Formula.t -> t

val eval : (int -> bool) -> t -> bool
val num_conjuncts : t -> int
val pp : Format.formatter -> t -> unit

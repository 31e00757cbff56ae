(** Evaluation results (Fig. 5): R ⟶ yes | no | maybe.  [Maybe] arises
    from un-inferred type variables or ambiguous selection; the
    obligation engine retries [Maybe] predicates to a fixpoint, after
    which survivors become failures (§4). *)

type t = Yes | Maybe | No

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
val is_yes : t -> bool
val is_no : t -> bool
val is_maybe : t -> bool

(** Conjunction: a candidate succeeds iff all nested predicates do. *)
val and_ : t -> t -> t

val conj : t list -> t

(** Disjunction over candidates (selection-uniqueness is layered on by
    [Solver.Solve]). *)
val or_ : t -> t -> t

val disj : t list -> t

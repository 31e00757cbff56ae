(** Evaluation results (Fig. 5): R ⟶ yes | no | maybe.

    [Maybe] arises when a predicate refers to un-inferred type variables
    (or when candidate selection is ambiguous); the obligation engine keeps
    re-evaluating [Maybe] predicates until a fixpoint, after which
    survivors become failures (§4). *)

type t = Yes | Maybe | No

let to_string = function Yes -> "yes" | Maybe -> "maybe" | No -> "no"

let pp ppf r = Format.pp_print_string ppf (to_string r)

let equal (a : t) (b : t) = a = b

let is_yes = function Yes -> true | _ -> false
let is_no = function No -> true | _ -> false
let is_maybe = function Maybe -> true | _ -> false

(** Conjunction: a candidate succeeds iff all of its nested predicates
    succeed. *)
let and_ a b =
  match (a, b) with
  | No, _ | _, No -> No
  | Maybe, _ | _, Maybe -> Maybe
  | Yes, Yes -> Yes

let conj results = List.fold_left and_ Yes results

(** Disjunction over candidates, ignoring selection-uniqueness concerns
    (those are layered on by [Solver.Solve]). *)
let or_ a b =
  match (a, b) with
  | Yes, _ | _, Yes -> Yes
  | Maybe, _ | _, Maybe -> Maybe
  | No, No -> No

let disj results = List.fold_left or_ No results

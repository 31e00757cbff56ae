(** Disjunctive-normal-form normalization of failure formulas.

    Each conjunct of the DNF is a *minimum correction subset* (MCS): a set
    of failing predicates that, if they held, would make the root
    obligation provable (§3.3).

    Normalization is the exponential step whose cost Fig. 12b measures.
    Every intermediate DNF is an antichain: no conjunct repeats or is a
    subset of another ([x ∨ (x ∧ y) = x]), so every conjunct is minimal.
    An OR therefore only tests absorption {i across} its two sides, and
    an AND skips [true] operands and stops at a [false] one. *)

(** A conjunct: a sorted, deduplicated list of variable ids. *)
type conjunct = int list

(** A DNF: a list of conjuncts.  [[]] is the unsatisfiable formula;
    [[[]]] (one empty conjunct) is the trivially true formula. *)
type t = conjunct list

(** Union of two sorted conjuncts, by a linear merge. *)
let rec conj_union (a : conjunct) (b : conjunct) : conjunct =
  match (a, b) with
  | [], c | c, [] -> c
  | x :: a', y :: b' ->
      if x = y then x :: conj_union a' b'
      else if x < y then x :: conj_union a' b
      else y :: conj_union a b'

(** [conj_subset a b]: every variable of [a] is in [b], by a linear
    walk of both sorted lists. *)
let rec conj_subset (a : conjunct) (b : conjunct) =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' ->
      if x = y then conj_subset a' b' else if x > y then conj_subset a b' else false

(** OR of two antichains.  A conjunct of [a] goes if one of [b] is a
    subset of it (so a shared conjunct is kept once, from [b]); one of
    [b] goes if a surviving one of [a] is a subset of it.  No dropped
    [ca] can be a strict subset of a [cb]: its own [cb' ⊆ ca] would then
    be a strict subset of [cb] within [b]. *)
let disj (a : t) (b : t) : t =
  let a = List.filter (fun ca -> not (List.exists (fun cb -> conj_subset cb ca) b)) a in
  a @ List.filter (fun cb -> not (List.exists (fun ca -> conj_subset ca cb) a)) b

(** AND of two antichains: the pairwise unions, re-minimized.  Sorted
    shortest first, a union's strict subsets all come before it (and a
    repeat after its first copy), so keeping each union that no kept one
    is a subset of keeps exactly the minimal ones, each once. *)
let cross (a : t) (b : t) : t =
  List.concat_map (fun ca -> List.map (conj_union ca) b) a
  |> List.sort (fun x y -> Int.compare (List.length x) (List.length y))
  |> List.fold_left
       (fun kept c -> if List.exists (fun k -> conj_subset k c) kept then kept else c :: kept)
       []

let sp_normalize = Telemetry.span "dnf.normalize"
let c_conjuncts = Telemetry.counter "dnf.conjuncts.max"

(** Normalize a formula into DNF, conjuncts in lexicographic order.

    This is the exponential step Fig. 12b measures; the [dnf.normalize]
    span is its wall-clock cost per call. *)
let of_formula (f : Formula.t) : t =
  let tok = Telemetry.begin_ sp_normalize in
  let rec go : Formula.t -> t = function
    | Formula.True -> [ [] ]
    | Formula.False -> []
    | Formula.Var i -> [ [ i ] ]
    | Formula.Or fs -> List.fold_left (fun acc f -> disj acc (go f)) [] fs
    | Formula.And fs -> conj [ [] ] fs
  and conj acc = function
    | [] -> acc
    | f :: fs -> (
        match go f with
        | [] -> []
        | [ [] ] -> conj acc fs
        | d -> conj (match acc with [ [] ] -> d | _ -> cross acc d) fs)
  in
  let d = List.sort (List.compare Int.compare) (go f) in
  Telemetry.record_max c_conjuncts (List.length d);
  Telemetry.end_ sp_normalize tok;
  d

(** Evaluate a DNF under an assignment (for the equivalence property
    tests against {!Formula.eval}). *)
let eval assign (d : t) = List.exists (List.for_all assign) d

let num_conjuncts (d : t) = List.length d

let pp ppf (d : t) =
  Fmt.pf ppf "%a"
    (Fmt.list ~sep:(Fmt.any " | ") (fun ppf c ->
         Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any ",") Fmt.int) c))
    d

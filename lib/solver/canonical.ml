(** Goal canonicalization, à la rustc's canonical queries.

    Two subgoals that differ only in {e which} fresh inference variables
    they mention are the same query: [Vec<?7>: Clone] under one solver
    run and [Vec<?19>: Clone] under another must map to one evaluation
    cache key.  Canonicalization resolves a predicate against the
    inference context (replacing bound variables by their values) and
    renumbers the remaining unresolved variables by first appearance,
    [?0, ?1, ...], yielding a context-independent form that is then
    hash-consed ({!Trait_lang.Interner}) so the cache can compare keys by
    pointer.

    The same variable-renumbering machinery, run with an offset instead
    of a first-appearance map, is how {!Eval_cache} shifts a memoized
    proof subtree into a new solver's variable space ({!shift_ty} /
    {!shift_predicate}). *)

open Trait_lang

(* Inference-variable renaming, sharing-preserving ({!Ty.map_infer}):
   the input term comes back physically unchanged when [f] fixes every
   variable in it — the common case, since most goal terms are
   ground. *)

let rename f node v =
  let v' = f v in
  if v' = v then node else Ty.Infer v'

let map_ty f = Ty.map_infer (rename f)
let map_projection f = Ty.map_infer_projection (rename f)

(* A [NormalizesTo]'s output variable is renamed too. *)
let map_predicate f (p : Predicate.t) : Predicate.t =
  match p with
  | NormalizesTo (pr, v) ->
      let pr' = map_projection f pr in
      let v' = f v in
      if pr' == pr && v' = v then p else NormalizesTo (pr', v')
  | _ -> Predicate.map_infer (rename f) p

(* ------------------------------------------------------------------ *)
(* Canonicalization *)

type canonical = {
  c_pred : Predicate.t;  (** interned; variables renumbered 0..c_vars-1 *)
  c_vars : int;  (** distinct unresolved inference variables *)
}

(** Canonicalize a predicate that the caller has already resolved against
    the inference context. *)
let canonicalize_resolved (pred : Predicate.t) : canonical =
  if not (Predicate.has_infer pred) then
    { c_pred = Interner.predicate pred; c_vars = 0 }
  else begin
    let mapping = Hashtbl.create 8 in
    let next = ref 0 in
    let renumber v =
      match Hashtbl.find_opt mapping v with
      | Some v' -> v'
      | None ->
          let v' = !next in
          incr next;
          Hashtbl.add mapping v v';
          v'
    in
    let pred' = map_predicate renumber pred in
    { c_pred = Interner.predicate pred'; c_vars = !next }
  end

let canonicalize icx (pred : Predicate.t) : canonical =
  canonicalize_resolved (Infer_ctx.resolve_predicate icx pred)

(* ------------------------------------------------------------------ *)
(* Variable shifting (memoized-subtree replay) *)

let shift v ~start ~delta = if v >= start then v + delta else v

let shift_ty ~start ~delta t =
  if delta = 0 then t else map_ty (shift ~start ~delta) t

let shift_predicate ~start ~delta p =
  if delta = 0 then p else map_predicate (shift ~start ~delta) p

let shift_projection ~start ~delta pr =
  if delta = 0 then pr else map_projection (shift ~start ~delta) pr

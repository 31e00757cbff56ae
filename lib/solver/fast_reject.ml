(** Simplified-self-type fast reject for impl candidate assembly.

    rustc prunes the impl set for a trait goal by "fast reject": the
    self type is collapsed to its head constructor ({!Simplified}), and
    impls whose self-type head cannot possibly unify with the goal's
    are never probed.  Like rustc's per-trait table from simplified head
    to impls, {!Program.impls_with_head} buckets a trait's impls once,
    in one pass, on first use; candidate assembly is one lookup in it.

    Soundness is by construction: a simplified head is [None] ("matches
    everything") whenever unification could see through it — inference
    variables, projections awaiting normalization, and impl self types
    headed by a generic parameter (blanket impls, whose instantiated
    head is a fresh inference variable).  Rejection only happens between
    two rigid heads that {!Unify.unify} is guaranteed to fail on. *)

open Trait_lang

let c_hits = Telemetry.counter "index.hits"
let c_rejects = Telemetry.counter "index.rejects"
let c_wildcard = Telemetry.counter "index.wildcard"

let simplify_goal = Simplified.of_goal
let simplify_impl = Simplified.of_impl

(** Can a goal with simplified head [goal] possibly unify with an impl
    of simplified head [impl]?  Wildcards ([None]) match everything. *)
let compatible goal impl =
  match (goal, impl) with
  | None, _ | _, None -> true
  | Some g, Some i -> Simplified.equal g i

(** The candidate impls of [trait_] whose self-type head is compatible
    with goal self type [self], in declaration order.  Gathers
    [index.{hits,rejects,wildcard}] telemetry. *)
let candidates (p : Program.t) (trait_ : Path.t) (self : Ty.t) : Decl.impl list =
  let head = Simplified.of_goal self in
  let b = Program.impls_with_head p trait_ head in
  if Option.is_none head then Telemetry.incr c_wildcard;
  Telemetry.add c_hits b.count;
  Telemetry.add c_rejects b.rejected;
  b.impls

(** A no-op.  Candidate assembly keeps no state outside the program;
    this stays for callers that reset every solver-side table between
    runs. *)
let clear () = ()

(** The trait solver: given a context and a predicate, produce the trait
    inference tree 𝒢 (Fig. 5).

    Mirrors rustc's solver at the level of detail the paper depends on:
    candidate assembly from param-env / impls / built-ins, speculative
    probing under snapshots with unique-success commit (how solving
    guides inference — the §2.3 marker deduction), projection
    normalization through stateful [NormalizesTo] nodes (§4), and
    cycle/depth overflow (E0275, §2.2). *)

open Trait_lang

type config = { depth_limit : int  (** recursion limit; rustc defaults to 128 *) }

val default_config : config

type t = {
  program : Program.t;
  icx : Infer_ctx.t;
  cfg : config;
  env : Predicate.t list;  (** in-scope where-clauses, supertrait-elaborated *)
  cache_ctx : Eval_cache.ctx;  (** the run's evaluation cache, with this solver's key scope *)
  mutable stack : Predicate.t list;  (** in-progress predicates, for cycles *)
}

(** Close a where-clause environment under supertraits. *)
val elaborate_env : Program.t -> Predicate.t list -> Predicate.t list

(** A fresh solver for [program].  [cache] is the run's evaluation cache,
    shared by every solver of the run; by default the solver gets a
    fresh one of its own. *)
val create :
  ?cfg:config -> ?env:Predicate.t list -> ?cache:Eval_cache.t -> Program.t -> t

(** Solve a single predicate as a root goal.  Bindings made by committed
    candidates persist in [t]'s inference context. *)
val solve : t -> ?origin:string -> ?span:Span.t -> Predicate.t -> Trace.goal_node

(** Deep-normalize a type outside any goal (depth 0): the normalized
    type — physically the input when it has no projection and nothing
    bound — and the [NormalizesTo] nodes evaluated for it. *)
val normalize : t -> Ty.t -> Ty.t * Trace.goal_node list

(** Speculative probing (§4): evaluate soft alternatives in order,
    committing the first success; earlier failures are flagged
    [Speculative].  Returns the nodes in evaluation order and the index
    of the committed alternative, if any. *)
val solve_probe :
  t ->
  ?origin:string ->
  ?span:Span.t ->
  Predicate.t list ->
  Trace.goal_node list * int option

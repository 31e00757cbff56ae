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
  cache_ctx : Eval_cache.ctx;  (** evaluation-cache key context *)
  mutable stack : Predicate.t list;  (** in-progress predicates, for cycles *)
}

(** Close a where-clause environment under supertraits. *)
val elaborate_env : Program.t -> Predicate.t list -> Predicate.t list

val create : ?cfg:config -> ?env:Predicate.t list -> Program.t -> t

(** Like {!create}, sharing an existing inference context. *)
val with_icx : ?cfg:config -> ?env:Predicate.t list -> Program.t -> Infer_ctx.t -> t

(** Solve a single predicate as a root goal.  Bindings made by committed
    candidates persist in [t]'s inference context. *)
val solve : t -> ?origin:string -> ?span:Span.t -> Predicate.t -> Trace.goal_node

(** Evaluate a predicate for its verdict only, through the result tier
    of the evaluation cache.  Contract: empty evaluation stack and an
    unconstrained inference context (a fresh solver qualifies). *)
val evaluate : t -> ?origin:string -> ?span:Span.t -> Predicate.t -> Res.t

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

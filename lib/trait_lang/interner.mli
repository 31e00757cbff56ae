(** Hash-consing for L_TRAIT terms.

    Interned terms are maximally shared: two structurally equal terms
    returned by the functions below are {e physically} equal, each with a
    process-unique id and a precomputed hash.  Combined with the [==]
    fast paths in {!Ty.equal} and {!Predicate.equal}, this turns deep
    structural comparison into a pointer comparison wherever both sides
    were interned, and gives the solver's evaluation cache O(1) keys.

    Interning an already-canonical term is an all-hit table walk that
    allocates only shallow lookup keys.  Telemetry counters
    [interner.hit] / [interner.miss] count node-level table outcomes.

    The tables are plain module state: argus runs on one domain, so the
    hot path takes no locks. *)

type 'a interned = {
  node : 'a;  (** the canonical (maximally shared) term *)
  id : int;  (** unique across every table, stable until {!clear} *)
  hash : int;  (** precomputed; suitable for Hashtbl keys *)
}

(** {1 Canonicalizing term constructors} *)

val ty : Ty.t -> Ty.t
val arg : Ty.arg -> Ty.arg
val trait_ref : Ty.trait_ref -> Ty.trait_ref
val projection : Ty.projection -> Ty.projection
val predicate : Predicate.t -> Predicate.t

(** {1 Id/hash access} *)

val ty_info : Ty.t -> Ty.t interned
val trait_ref_info : Ty.trait_ref -> Ty.trait_ref interned
val projection_info : Ty.projection -> Ty.projection interned
val predicate_info : Predicate.t -> Predicate.t interned

(** {1 Introspection} *)

type stats = {
  st_tys : int;
  st_args : int;
  st_trait_refs : int;
  st_projections : int;
  st_predicates : int;
}

(** Live entry counts per table. *)
val stats : unit -> stats

(** Empty the tables.  Previously interned terms stay
    valid values but are no longer canonical: terms interned afterwards
    will not be physically equal to them.  Intended for tests. *)
val clear : unit -> unit

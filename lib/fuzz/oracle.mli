(** The differential oracles: solve one L_TRAIT source several ways and
    demand agreement.  Each oracle lists the runs it observes (cache on
    or off, journal recording or not, goals doubled or not) and which of
    them must agree under one comparator: statuses, rounds, every
    attempt's proof tree, then the bytes a user sees.  The campaign
    driver runs a set of oracles over every generated program; the
    corpus tests run all of them over every bundled program.

    Failure messages carry a stable [kind:] prefix (the oracle's name,
    or [front-end] for load errors), which the shrinker uses to check a
    reduced program still exhibits the {e same} divergence. *)

type name =
  | Wellformed
      (** generated programs parse, resolve, and solve without error *)
  | Cache
      (** cache-off ≡ cache-on on unjournaled runs, of the program and
          of the program with every goal doubled (whose second copies
          replay in the same run) — statuses, rounds, proof trees,
          report, diagnostics — and a journaled cache-on run ≡ the
          journaled cache-off run, event for event, moving no [cache.*]
          counter *)
  | Journal
      (** journal replay rebuilds exactly the solver's direct trace
          forest (checked on every recording run of every oracle; this
          one records a cache-off run) *)
  | Roundtrip
      (** pretty-print → re-parse → re-resolve → re-solve reaches the
          same verdicts, rounds and (with root spans blanked) the same
          tree on every attempt *)
  | Determinism
      (** two cold runs of the same source are byte-identical *)
  | Serve
      (** drive the program through a live in-process {!Serve.Server}
          (open → solve → seeded expand/hover walk → explain → profile →
          edit-script reloads → re-solve) and byte-compare every
          response payload against a fresh cache-off scratch run (check
          output, trees, view lines, failure narrative, explain summary,
          profile) at the base program and at every edit step; an
          unchanged reload must be a no-op *)

(** All oracles, in campaign execution order ({!Wellformed} first). *)
val all : name list

val to_string : name -> string
val of_string : string -> name option

(** One-line description (CLI listings, docs). *)
val describe : name -> string

type verdict = Pass | Fail of string

(** The [kind:] prefix of a failure message ([front-end] for load
    errors, otherwise the oracle name). *)
val fail_kind : string -> string

(** Parse and resolve a source as every oracle does; a load error
    reads [front-end: ...]. *)
val load : string -> (Trait_lang.Program.t, string) result

(** Run one oracle on one source program.  The global evaluation-cache
    switch is saved and restored. *)
val check : name -> source:string -> verdict

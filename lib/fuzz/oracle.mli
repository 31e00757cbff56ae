(** The differential oracles: solve one L_TRAIT source several ways and
    demand agreement.  Each oracle is a self-contained property of the
    whole pipeline; the campaign driver runs a set of them over every
    generated program.

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
          {!fingerprint} — and a journaled cache-on run ≡ the journaled
          cache-off run, event for event, moving no [cache.*] counter *)
  | Journal
      (** journal replay rebuilds exactly the solver's direct trace
          forest *)
  | Roundtrip
      (** pretty-print → re-parse → re-resolve → re-solve reaches the
          same verdicts and (span-insensitively) the same trees *)
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

(** Fabricate a corpus-harness entry around a raw source string (id
    [fuzz-0]), so the corpus harness can solve generated programs. *)
val entry : string -> Corpus.Harness.entry

(** The byte-level fingerprint of a solved unit: encoded report, trace
    gids/depths/predicates, rendered diagnostics, journal JSONL. *)
val fingerprint : Corpus.Harness.unit_result -> string

(** Run one oracle on one source program.  Global evaluation-cache
    state is saved, used, and restored; the cache is left
    enabled-as-before and cleared. *)
val check : name -> source:string -> verdict

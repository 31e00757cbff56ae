(** The fuzzing campaign driver: generate → render → oracle matrix →
    (shrink) → repro file, with [fuzz.*] telemetry counters.

    Reproducibility: iteration [i] of a campaign over [~seed] depends
    only on [(seed, i, size)] ({!Gen.generate}), so a counterexample's
    header line is enough to regenerate it, and a saved [.trait] repro
    replays without the generator. *)

type counterexample = {
  cx_iter : int;
  cx_oracle : Oracle.name;
  cx_message : string;  (** the original (pre-shrink) failure *)
  cx_decls : int;  (** declarations in the reported program *)
  cx_source : string;  (** shrunk when shrinking ran, else as generated *)
  cx_file : string option;  (** repro path, when [out_dir] was given *)
}

type outcome = {
  o_iters : int;  (** iterations executed *)
  o_checks : int;  (** oracle invocations (including shrinking) *)
  o_counterexample : counterexample option;
}

(** Run a campaign: for each iteration, generate one program and run
    every oracle in [oracles] over it, stopping at the first
    counterexample (shrinking it first when [shrink]).  [progress] is
    called with a status line every 50 iterations.  [out_dir] (created
    if missing) receives [fuzz-<seed>-<iter>-<oracle>.trait] on a
    counterexample. *)
val run :
  ?out_dir:string ->
  ?shrink:bool ->
  ?size:int ->
  ?progress:(string -> unit) ->
  oracles:Oracle.name list ->
  iters:int ->
  seed:int ->
  unit ->
  outcome

(** Re-run the oracle matrix over a saved repro (or any L_TRAIT file):
    per-oracle verdicts, in [oracles] order. *)
val replay :
  oracles:Oracle.name list ->
  path:string ->
  unit ->
  (Oracle.name * Oracle.verdict) list

(** The repro-file header + source written for a counterexample. *)
val repro_contents :
  seed:int -> iter:int -> oracle:Oracle.name -> message:string -> source:string -> string

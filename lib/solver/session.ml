(* An incremental solving session: load a program once, then feed it
   edited versions and re-solve, reusing every cache entry the edit
   provably did not touch (red-green revalidation).

   The pieces, in edit order:
   - {!Trait_lang.Fingerprint.diff} classifies old→new into dirty
     invalidation keys;
   - {!Eval_cache.rebase} walks the reverse index, evicts exactly the
     entries that consulted a dirty declaration, and re-keys the rest
     under the new program stamp;
   - {!resolve} then runs an ordinary full solve: green goals resolve
     through a single root tree-tier hit (a bit-identical replay), red
     goals re-evaluate.  Byte-identity with a from-scratch solve follows
     from the cache's replay contract — there is no separate incremental
     result path to trust.

   Sessions always solve with an empty where-clause environment: the
   param-env is part of the cache key but its elaboration consults trait
   declarations outside any dep scope, so a non-empty env would not be
   revalidated soundly. *)

open Trait_lang

let c_resolves = Telemetry.counter "incr.resolves"

type delta = {
  d_changed : int;  (** declarations the differ classified as changed *)
  d_evicted : int;  (** cache entries invalidated (red) *)
  d_survived : int;  (** cache entries re-keyed to the new stamp (green) *)
}

let no_delta = { d_changed = 0; d_evicted = 0; d_survived = 0 }

type t = {
  cfg : Solve.config;
  mutable program : Program.t option;
  mutable report : Obligations.report option;
  mutable last_delta : delta;
}

let create ?(cfg = Solve.default_config) () =
  { cfg; program = None; report = None; last_delta = no_delta }

let ctx_of cfg program =
  Eval_cache.make_ctx ~stamp:(Program.stamp program) ~depth_limit:cfg.Solve.depth_limit []

let edit t (next : Program.t) : delta =
  let delta =
    match t.program with
    | None -> no_delta
    | Some old_program when Program.stamp old_program = Program.stamp next ->
        (* Same declaration context (e.g. a goal-only edit): every cache
           entry is already keyed correctly. *)
        no_delta
    | Some old_program ->
        let diff = Fingerprint.diff ~old_program ~new_program:next in
        let rb =
          Eval_cache.rebase ~old_ctx:(ctx_of t.cfg old_program) ~new_ctx:(ctx_of t.cfg next)
            ~dirty:diff.Fingerprint.dirty
        in
        {
          d_changed = diff.Fingerprint.changed_decls;
          d_evicted = rb.Eval_cache.rb_evicted;
          d_survived = rb.Eval_cache.rb_survived;
        }
  in
  t.program <- Some next;
  t.report <- None;
  t.last_delta <- delta;
  delta

let load = edit

(** Re-solve the current program.  Resets the journal-ID and snapshot
    counters first so the gid stream matches a from-scratch run — cache
    replay then reproduces it bit-for-bit.  The installed journal sink
    (if any) is left in place, so a session server can record the
    resolve through {!Journal.with_memory_sink}. *)
let resolve t : Obligations.report =
  match t.program with
  | None -> invalid_arg "Session.resolve: no program loaded"
  | Some program ->
      Telemetry.incr c_resolves;
      Eval_cache.reset_dep_scopes ();
      Journal.reset_ids ();
      Infer_ctx.reset_snapshot_serial ();
      let report = Obligations.solve_program ~cfg:t.cfg program in
      t.report <- Some report;
      report

let program t = t.program
let report t = t.report
let last_delta t = t.last_delta
let errors t = match t.report with None -> [] | Some r -> Obligations.errors r

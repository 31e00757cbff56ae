(* A solving session: load a program, then feed it edited versions and
   re-solve.  Each resolve is one {!Obligations.solve_program} run with
   an evaluation cache of its own, so an edit has nothing to evict and
   nothing carries over from one version to the next. *)

open Trait_lang

type delta = { d_evicted : int; d_survived : int }

type t = {
  cfg : Solve.config;
  mutable program : Program.t option;
  mutable report : Obligations.report option;
}

let create ?(cfg = Solve.default_config) () = { cfg; program = None; report = None }

let edit t (next : Program.t) : delta =
  t.program <- Some next;
  t.report <- None;
  { d_evicted = 0; d_survived = 0 }

let load = edit

(** Re-solve the current program.  Resets the journal-ID and snapshot
    counters first so the gid stream matches a from-scratch run.  The
    installed journal sink (if any) is left in place, so a session
    server can record the resolve through {!Journal.with_memory_sink}. *)
let resolve t : Obligations.report =
  match t.program with
  | None -> invalid_arg "Session.resolve: no program loaded"
  | Some program ->
      Journal.reset_ids ();
      Infer_ctx.reset_snapshot_serial ();
      let report = Obligations.solve_program ~cfg:t.cfg program in
      t.report <- Some report;
      report

let program t = t.program
let report t = t.report
let errors t = match t.report with None -> [] | Some r -> Obligations.errors r

(* A solving session: load a program, then feed it edited versions and
   re-solve.  The eval cache is keyed by program stamp, so an edit that
   brings a new stamp (any declaration change) can never hit its
   predecessor's entries again: [edit] evicts them, keeping a long-lived
   session at one version's worth of cache.  A same-stamp edit (a goal
   edit, or an unchanged reload) keeps every entry; goals are solver
   inputs, not part of the cached context. *)

open Trait_lang

type delta = { d_evicted : int; d_survived : int }

type t = {
  cfg : Solve.config;
  mutable program : Program.t option;
  mutable report : Obligations.report option;
}

let create ?(cfg = Solve.default_config) () = { cfg; program = None; report = None }

let edit t (next : Program.t) : delta =
  let evicted =
    match t.program with
    | Some old when Program.stamp old <> Program.stamp next ->
        Eval_cache.evict_stamp (Program.stamp old)
    | _ -> 0
  in
  t.program <- Some next;
  t.report <- None;
  { d_evicted = evicted; d_survived = 0 }

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
      Journal.reset_ids ();
      Infer_ctx.reset_snapshot_serial ();
      let report = Obligations.solve_program ~cfg:t.cfg program in
      t.report <- Some report;
      report

let program t = t.program
let report t = t.report
let errors t = match t.report with None -> [] | Some r -> Obligations.errors r

(** Differential oracles (see the interface).  Comparison logic mirrors
    the corpus regression tests — [test_cache.ml]'s report equivalence,
    [test_pool.ml]'s use of {!fingerprint} — so a fuzz counterexample is
    by construction a failure of the same properties those suites pin. *)

open Trait_lang

type name =
  | Wellformed
  | Cache
  | Journal
  | Roundtrip
  | Determinism
  | Serve

let all =
  [
    Wellformed;
    Cache;
    Journal;
    Roundtrip;
    Determinism;
    Serve;
  ]

let to_string = function
  | Wellformed -> "wellformed"
  | Cache -> "cache"
  | Journal -> "journal"
  | Roundtrip -> "roundtrip"
  | Determinism -> "determinism"
  | Serve -> "serve"

let of_string s =
  List.find_opt (fun n -> String.equal (to_string n) s) all

let describe = function
  | Wellformed -> "generated programs parse, resolve, and solve without error"
  | Cache ->
      "cache-off and cache-on runs agree, single and with every goal doubled (trees, \
       rounds, journal)"
  | Journal -> "journal replay rebuilds the solver's direct trace forest"
  | Roundtrip -> "pretty-print, re-parse, re-solve reaches the same result"
  | Determinism -> "two cold runs of the same source are byte-identical"
  | Serve ->
      "live serve-protocol responses byte-match fresh one-shot runs across \
       open/solve/expand/hover/explain/profile/reload"

type verdict = Pass | Fail of string

let fail_kind msg =
  match String.index_opt msg ':' with
  | Some i -> String.sub msg 0 i
  | None -> msg

let failf fmt = Printf.ksprintf (fun m -> Fail m) fmt

(* ------------------------------------------------------------------ *)
(* Plumbing *)

let entry source : Corpus.Harness.entry =
  {
    id = "fuzz-0";
    title = "generated program";
    library = "fuzz";
    kind = Corpus.Harness.Synthetic;
    description = "fuzzer-generated";
    source;
    root_cause = "";
    fix_hint = "";
  }

let load source =
  match Corpus.Harness.load (entry source) with
  | p -> Ok p
  | exception Corpus.Harness.Corpus_error m -> Error ("front-end: " ^ m)

(* Save/restore the global cache switch around an oracle body.  Oracles
   run outside any journal, so [enabled ()] reads the switch itself. *)
let with_cache_state f =
  let was = Solver.Eval_cache.enabled () in
  Fun.protect ~finally:(fun () -> Solver.Eval_cache.set_enabled was) f

let fingerprint (b : Corpus.Harness.unit_result) : string =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Argus_json.Json.to_string (Argus_json.Encode.report b.b_report));
  List.iter
    (fun (r : Solver.Obligations.goal_report) ->
      Solver.Trace.fold_goals
        (fun () (g : Solver.Trace.goal_node) ->
          Printf.bprintf buf "g%d d%d %s;" g.gid g.depth (Pretty.predicate g.pred))
        () r.final;
      if r.status <> Solver.Obligations.Proved then begin
        let tree = Argus.Extract.of_report r in
        let goal = { r.goal with Program.goal_pred = r.final.pred } in
        Buffer.add_string buf
          (Rustc_diag.Diagnostic.to_string
             (Rustc_diag.Diagnostic.of_tree b.b_program goal tree))
      end)
    b.b_report.reports;
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Argus_json.Json.to_string (Argus_json.Journal_codec.entry_to_json e));
      Buffer.add_char buf '\n')
    b.b_journal;
  Buffer.contents buf

(* Report equivalence, as test_cache.ml checks it: counts, rounds,
   statuses, and node-for-node tree equality on every attempt. *)
let reports_agree ~what (a : Solver.Obligations.report) (b : Solver.Obligations.report) =
  if List.length a.reports <> List.length b.reports then
    Some (Printf.sprintf "%s: %d vs %d goal reports" what
            (List.length a.reports) (List.length b.reports))
  else if a.rounds <> b.rounds then
    Some (Printf.sprintf "%s: %d vs %d fixpoint rounds" what a.rounds b.rounds)
  else
    List.fold_left2
      (fun acc (ra : Solver.Obligations.goal_report) (rb : Solver.Obligations.goal_report) ->
        match acc with
        | Some _ -> acc
        | None ->
            if ra.status <> rb.status then
              Some (Printf.sprintf "%s: status differs on goal %s" what
                      (Pretty.predicate ra.goal.goal_pred))
            else if List.length ra.attempts <> List.length rb.attempts then
              Some (Printf.sprintf "%s: attempt count differs on goal %s" what
                      (Pretty.predicate ra.goal.goal_pred))
            else
              List.fold_left2
                (fun acc (ta : Solver.Trace.goal_node) (tb : Solver.Trace.goal_node) ->
                  match acc with
                  | Some _ -> acc
                  | None ->
                      if
                        Journal.equal_goal
                          (Solver.Jlog.rtree_of_trace ta)
                          (Solver.Jlog.rtree_of_trace tb)
                      then None
                      else
                        Some (Printf.sprintf "%s: proof tree differs (gid %d vs %d) on %s"
                                what ta.gid tb.gid (Pretty.predicate ra.goal.goal_pred)))
                acc ra.attempts rb.attempts)
      None a.reports b.reports

let streams_agree ~what a b =
  if List.length a <> List.length b then
    Some (Printf.sprintf "%s: %d vs %d events" what
            (List.length a) (List.length b))
  else
    List.fold_left2
      (fun acc (ea : Journal.entry) (eb : Journal.entry) ->
        match acc with
        | Some _ -> acc
        | None ->
            if Journal.equal_event ea.ev eb.ev then None
            else
              Some (Printf.sprintf "%s: event %d differs: %s vs %s" what ea.seq
                      (Journal.event_kind ea.ev) (Journal.event_kind eb.ev)))
      None a b

(* ------------------------------------------------------------------ *)
(* Individual oracles *)

let check_wellformed source =
  match load source with
  | Error m -> Fail m
  | Ok program -> begin
      match Solver.Obligations.solve_program program with
      | report ->
          if List.length report.reports = List.length (Program.goals program) then Pass
          else failf "wellformed: %d goals but %d reports"
                 (List.length (Program.goals program))
                 (List.length report.reports)
      | exception e -> failf "wellformed: solver raised %s" (Printexc.to_string e)
    end

(* The [cache.*] telemetry counters; read with telemetry on, they move
   on every lookup, insert and reject. *)
let cache_counters () =
  List.map Telemetry.counter_value
    [
      "cache.tree.hits";
      "cache.tree.misses";
      "cache.tree.inserts";
      "cache.tree.rejects";
    ]

(* A journaled run, with telemetry on for its duration: does it move a
   [cache.*] counter? *)
let journaled_counting e =
  let was = Telemetry.enabled () in
  Telemetry.enable ();
  let before = cache_counters () in
  let r = Corpus.Harness.solve_unit ~journal:true e in
  let moved = cache_counters () <> before in
  if not was then Telemetry.disable ();
  (r, moved)

(* The program with every root goal doubled, solved in one run: the
   second copy of each ground goal replays the first copy's entry. *)
let solve_doubled (e : Corpus.Harness.entry) : Corpus.Harness.unit_result =
  Journal.reset ();
  Solver.Infer_ctx.reset_snapshot_serial ();
  let p = Corpus.Harness.load e in
  let program = Program.with_goals (Program.goals p @ Program.goals p) p in
  {
    b_entry = e;
    b_program = program;
    b_report = Solver.Obligations.solve_program program;
    b_journal = [];
  }

let check_cache source =
  with_cache_state @@ fun () ->
  let e = entry source in
  Solver.Eval_cache.set_enabled false;
  let off = Corpus.Harness.solve_unit ~journal:false e in
  let off_j = Corpus.Harness.solve_unit ~journal:true e in
  let doubled_off = solve_doubled e in
  Solver.Eval_cache.set_enabled true;
  let cold = Corpus.Harness.solve_unit ~journal:false e in
  let doubled = solve_doubled e in
  (* a recording run must be the cache-off run, and never touch a cache *)
  let on_j, moved = journaled_counting e in
  let same_fingerprint ~what a b =
    if String.equal (fingerprint a) (fingerprint b) then None
    else Some (what ^ ": fingerprints differ")
  in
  let ( <|> ) a b = match a with Some _ -> a | None -> b in
  let mismatch =
    reports_agree ~what:"cache: off vs cold" off.b_report cold.b_report
    <|> reports_agree ~what:"cache: off vs doubled" doubled_off.b_report doubled.b_report
    <|> same_fingerprint ~what:"cache: off vs cold" off cold
    <|> same_fingerprint ~what:"cache: off vs doubled" doubled_off doubled
    <|> streams_agree ~what:"cache: off vs on journal" off_j.b_journal on_j.b_journal
    <|> same_fingerprint ~what:"cache: off vs on journaled" off_j on_j
    <|> (if moved then Some "cache: a journaled run moved a cache.* counter" else None)
  in
  match mismatch with None -> Pass | Some m -> Fail m

let check_journal source =
  with_cache_state @@ fun () ->
  Solver.Eval_cache.set_enabled false;
  let r = Corpus.Harness.solve_unit ~journal:true (entry source) in
  match Journal.replay r.b_journal with
  | Error m -> failf "journal: stream does not replay: %s" m
  | Ok tree ->
      let direct =
        List.concat_map
          (fun (gr : Solver.Obligations.goal_report) -> gr.attempts)
          r.b_report.reports
      in
      if List.length tree.Journal.rt_roots <> List.length direct then
        failf "journal: %d replayed roots vs %d direct attempts"
          (List.length tree.Journal.rt_roots)
          (List.length direct)
      else
        (* roots stream in evaluation (round-major) order, attempts in
           goal-major order — match by the stable gid *)
        let mismatch =
          List.fold_left
            (fun acc (t : Solver.Trace.goal_node) ->
              match acc with
              | Some _ -> acc
              | None -> begin
                  match
                    List.find_opt
                      (fun (rg : Journal.rgoal) -> rg.rg_id = t.gid)
                      tree.Journal.rt_roots
                  with
                  | None -> Some (Printf.sprintf "journal: no replayed root for gid %d" t.gid)
                  | Some rg ->
                      if Journal.equal_goal rg (Solver.Jlog.rtree_of_trace t) then None
                      else
                        Some
                          (Printf.sprintf "journal: replay of gid %d differs from trace" t.gid)
                end)
            None direct
        in
        (match mismatch with None -> Pass | Some m -> Fail m)

(* A final tree as the roundtrip oracle compares it: the re-parsed
   program has different source offsets, so the root span is blanked;
   everything else must match. *)
let rtree_without_span (t : Solver.Trace.goal_node) =
  let g = Solver.Jlog.rtree_of_trace t in
  match g.rg_prov with
  | Journal.Root r -> { g with rg_prov = Journal.Root { r with span = Span.dummy } }
  | _ -> g

let solve_fresh program =
  Journal.reset ();
  Solver.Obligations.solve_program program

let check_roundtrip source =
  with_cache_state @@ fun () ->
  match load source with
  | Error m -> Fail m
  | Ok p1 -> begin
      let printed = Printer.program p1 in
      match load printed with
      | Error m -> failf "roundtrip: printed program does not load (%s)" m
      | Ok p2 ->
          Solver.Eval_cache.set_enabled false;
          let r1 = solve_fresh p1 and r2 = solve_fresh p2 in
          if List.length r1.reports <> List.length r2.reports then
            failf "roundtrip: %d vs %d goal reports" (List.length r1.reports)
              (List.length r2.reports)
          else if r1.rounds <> r2.rounds then
            failf "roundtrip: %d vs %d fixpoint rounds" r1.rounds r2.rounds
          else
            let mismatch =
              List.fold_left2
                (fun acc (a : Solver.Obligations.goal_report)
                     (b : Solver.Obligations.goal_report) ->
                  match acc with
                  | Some _ -> acc
                  | None ->
                      if a.status <> b.status then
                        Some
                          (Printf.sprintf "roundtrip: status differs on goal %s"
                             (Pretty.predicate a.goal.goal_pred))
                      else if
                        not
                          (Journal.equal_goal (rtree_without_span a.final)
                             (rtree_without_span b.final))
                      then
                        Some
                          (Printf.sprintf "roundtrip: final tree differs on goal %s"
                             (Pretty.predicate a.goal.goal_pred))
                      else None)
                None r1.reports r2.reports
            in
            (match mismatch with None -> Pass | Some m -> Fail m)
    end

(* Serve-protocol equivalence.  Drive the generated program through a
   live in-process server and byte-compare every response payload
   against a fresh cache-off scratch run of the same program value: the
   rendered check report, proof-tree pages and view lines must not
   change with cache warmth, and the journal-derived payloads (failure
   narrative, explain summary, profile table) come from a recording
   solve, which never consults the cache.

   Then an edit script reloads printed versions through the session
   and re-compares every payload; a final reload of the unchanged
   source must be a no-op. *)
let check_serve source =
  with_cache_state @@ fun () ->
  let module Json = Argus_json.Json in
  let module Rpc = Argus_json.Rpc in
  let ( let* ) = Result.bind in
  let parse src =
    match Trait_lang.Resolve.program_of_string ~file:"<serve>" src with
    | p -> Ok p
    | exception Parser.Error e -> Error e.message
    | exception Trait_lang.Resolve.Error e ->
        Error (Trait_lang.Resolve.error_message e)
  in
  match parse source with
  | Error m -> Fail ("front-end: " ^ m)
  | Ok p1 ->
      Solver.Eval_cache.set_enabled true;
      let server = Serve.Server.create () in
      let rpc m params =
        let l =
          Rpc.request_to_line
            {
              Rpc.rpc_id = Some (Rpc.Int_id 0);
              rpc_method = m;
              rpc_params =
                Some (Json.Obj (("session", Json.String "fuzz") :: params));
            }
        in
        match Serve.Server.handle_line server l with
        | None -> Error (m ^ ": no response")
        | Some resp -> (
            match Rpc.response_of_line resp with
            | Ok { Rpc.resp_result = Ok v; _ } -> Ok v
            | Ok { Rpc.resp_result = Error e; _ } ->
                Error
                  (Printf.sprintf "%s: rpc error %d: %s" m e.Rpc.code
                     e.Rpc.message)
            | Error e -> Error (m ^ ": bad response frame: " ^ e))
      in
      let str_member name v =
        match Option.bind (Json.member name v) Json.to_string_opt with
        | Some s -> Ok s
        | None -> Error (Printf.sprintf "missing `%s` in response" name)
      in
      (* Fresh cache-off scratch solve + render of [program]; journal
         normalized like the server's. *)
      let scratch_off program =
        Journal.reset ();
        Solver.Infer_ctx.reset_snapshot_serial ();
        Solver.Eval_cache.set_enabled false;
        let (report, rendered), entries =
          Journal.with_memory_sink (fun () ->
              let report = Solver.Obligations.solve_program program in
              (report, Serve.Check_render.run program report))
        in
        Solver.Eval_cache.set_enabled true;
        let entries =
          List.map (fun (e : Journal.entry) -> { e with Journal.ts_ns = 0 }) entries
        in
        (report, fst rendered, entries)
      in
      let failing_trees (report : Solver.Obligations.report) =
        report.reports
        |> List.filter (fun (r : Solver.Obligations.goal_report) ->
               r.status <> Solver.Obligations.Proved)
        |> List.map Argus.Extract.of_report
      in
      let tree_page trees =
        String.concat ""
          (List.map
             (fun t ->
               Argus.Render.tree_to_string
                 ~direction:Argus.View_state.Bottom_up t
               ^ "\n\n")
             trees)
      in
      (* every payload of the live session vs one cache-off scratch run
         of the same program value *)
      let check_step ~what program =
        let ref_report, ref_out, ref_entries = scratch_off program in
        let same label got want =
          if String.equal got want then Ok ()
          else Error (Printf.sprintf "%s: %s differs from cache-off scratch" what label)
        in
        let output m params =
          let* v = rpc m params in
          str_member "output" v
        in
        let* out = output "solve" [] in
        let* () = same "solve output" out ref_out in
        let* tree_out = output "tree" [] in
        let ref_trees = failing_trees ref_report in
        let* () = same "tree page" tree_out (tree_page ref_trees) in
        let* ref_tree =
          match Journal.replay ref_entries with
          | Ok t -> Ok t
          | Error m -> Error (what ^ ": scratch replay failed: " ^ m)
        in
        let* failures_out = output "explain" [ ("failures", Json.Bool true) ] in
        let* () =
          same "explain --failures" failures_out (Serve.Explain_render.failures ref_tree)
        in
        let* summary_out = output "explain" [] in
        let* () =
          same "explain summary" summary_out
            (Serve.Explain_render.summary ~entries:(List.length ref_entries) ref_tree)
        in
        let* profile_out = output "profile" [] in
        let* () =
          same "profile table" profile_out
            (Profile.top_table ~top:10 (Profile.of_entries ref_entries))
        in
        Ok ref_trees
      in
      let outcome =
        (* ---- cold session ---- *)
        let* _ = rpc "open" [ ("source", Json.String source) ] in
        let* ref_trees = check_step ~what:"base" p1 in
        (* ---- seeded expand/hover walk on goal 0 ---- *)
        let seed = Hashtbl.hash source in
        let* () =
              match ref_trees with
              | [] -> Ok ()
              | tree :: _ ->
                  let rec walk k vs =
                    if k > 5 then Ok ()
                    else
                      let rows = Argus.Render.view vs in
                      let n = List.length rows in
                      if n = 0 then Ok ()
                      else
                        let l = List.nth rows ((seed + (k * 7919)) mod n) in
                        let verb = if k mod 2 = 0 then "expand" else "hover" in
                        let vs' =
                          if l.Argus.Render.node = Argus.Render.others_row
                          then Argus.View_state.toggle_others vs
                          else if k mod 2 = 0 then
                            Argus.View_state.expand vs l.Argus.Render.node
                          else Argus.View_state.hover vs l.Argus.Render.node
                        in
                        let expected =
                          Json.to_string (Serve.Server.view_json ~goal:0 vs')
                        in
                        let* got =
                          rpc verb [ ("row", Json.Int l.Argus.Render.index) ]
                        in
                        if not (String.equal (Json.to_string got) expected)
                        then
                          Error
                            (Printf.sprintf
                               "walk step %d (%s row %d) differs from \
                                reference view state"
                               k verb l.Argus.Render.index)
                        else walk (k + 1) vs'
                  in
                  walk 0 (Argus.View_state.create tree)
            in
            (* ---- edit-script reloads through the warm session ---- *)
            let steps = Edit.script ~seed ~steps:2 p1 in
            let rec go i last_src = function
              | [] -> Ok last_src
              | (_, version) :: rest ->
                  let v_src = Printer.program version in
                  let* _ =
                    rpc "reload" [ ("source", Json.String v_src) ]
                  in
                  let* vp =
                    match parse v_src with
                    | Ok vp -> Ok vp
                    | Error m ->
                        Error
                          (Printf.sprintf
                             "step %d: printed version does not re-parse \
                              (%s)"
                             i m)
                  in
                  let* _ = check_step ~what:(Printf.sprintf "step %d" i) vp in
                  go (i + 1) v_src rest
            in
            let* last_src = go 1 source steps in
            (* ---- unchanged reload: a no-op ---- *)
            let* reloaded =
              rpc "reload" [ ("source", Json.String last_src) ]
            in
            let noop =
              match Json.member "noop" reloaded with
              | Some (Json.Bool b) -> b
              | _ -> false
            in
            if not noop then
              Error "unchanged reload is not a no-op"
            else Ok ()
      in
      (match outcome with
      | Ok () -> Pass
      | Error m -> Fail ("serve: " ^ m))

let check_determinism source =
  with_cache_state @@ fun () ->
  let e = entry source in
  let a = Corpus.Harness.solve_unit ~journal:true e in
  let b = Corpus.Harness.solve_unit ~journal:true e in
  if String.equal (fingerprint a) (fingerprint b) then Pass
  else Fail "determinism: two cold runs of the same source differ"

(* ------------------------------------------------------------------ *)

let check name ~source =
  let body () =
    match name with
    | Wellformed -> check_wellformed source
    | Cache -> check_cache source
    | Journal -> check_journal source
    | Roundtrip -> check_roundtrip source
    | Determinism -> check_determinism source
    | Serve -> check_serve source
  in
  match body () with
  | v -> v
  | exception Corpus.Harness.Corpus_error m -> Fail ("front-end: " ^ m)
  | exception e ->
      failf "%s: oracle raised %s" (to_string name) (Printexc.to_string e)

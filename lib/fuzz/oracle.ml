(** Differential oracles (see the interface).  Every oracle observes
    one program solved under a few run configurations ({!observe}) and
    demands that the observations agree ({!diff}); the corpus tests run
    the same oracles over every bundled program. *)

open Trait_lang

type name =
  | Wellformed
  | Cache
  | Journal
  | Roundtrip
  | Determinism
  | Serve

type verdict = Pass | Fail of string

let fail_kind msg =
  match String.index_opt msg ':' with
  | Some i -> String.sub msg 0 i
  | None -> msg

let ( let* ) = Result.bind
let errorf fmt = Printf.ksprintf Result.error fmt

let file = "fuzz.trait"
let load source = Result.map_error (fun m -> "front-end: " ^ m) (Resolve.load ~file source)

(* ------------------------------------------------------------------ *)
(* Observing one run *)

type run = { cache : bool; journal : bool; doubled : bool }

type observation = {
  program : Program.t;  (** as solved: with every goal doubled when the run doubles *)
  report : Solver.Obligations.report;
  events : Journal.entry list;  (** timestamps 0; [] unless the run records *)
  cache_moved : bool;  (** the solve moved a [cache.*] counter *)
}

let cache_counters () =
  List.map Telemetry.counter_value
    [ "cache.tree.hits"; "cache.tree.misses"; "cache.tree.inserts"; "cache.tree.rejects" ]

(* The journal rebuilds the direct trace forest: one replayed root per
   solving attempt, matched by gid (roots stream in round-major order,
   attempts are goal-major). *)
let replays_to_trace events (report : Solver.Obligations.report) =
  match Journal.replay events with
  | Error m -> errorf "journal does not replay: %s" m
  | Ok tree ->
      let direct =
        List.concat_map
          (fun (r : Solver.Obligations.goal_report) -> r.attempts)
          report.reports
      in
      let replays (t : Solver.Trace.goal_node) =
        List.exists
          (fun (rg : Journal.rgoal) ->
            rg.rg_id = t.gid && Journal.equal_goal rg (Solver.Jlog.rtree_of_trace t))
          tree.rt_roots
      in
      if List.compare_lengths tree.rt_roots direct <> 0 then
        errorf "%d replayed roots vs %d direct attempts" (List.length tree.rt_roots)
          (List.length direct)
      else (
        match List.find_opt (fun t -> not (replays t)) direct with
        | Some t -> errorf "no replayed root equals the trace of gid %d" t.gid
        | None -> Ok ())

(* One solve of [program] under [run], from reset journal IDs and
   snapshot serial, so everything observed is a function of the program
   and the run.  A recording run is checked to replay. *)
let observe run program =
  let goals = Program.goals program in
  let program = if run.doubled then Program.with_goals (goals @ goals) program else program in
  Solver.Eval_cache.set_enabled run.cache;
  Journal.reset ();
  Solver.Infer_ctx.reset_snapshot_serial ();
  let was = Telemetry.enabled () in
  Telemetry.enable ();
  let before = cache_counters () in
  let solve () = Solver.Obligations.solve_program program in
  let report, events =
    Fun.protect
      ~finally:(fun () -> if not was then Telemetry.disable ())
      (fun () -> if run.journal then Journal.with_memory_sink solve else (solve (), []))
  in
  let o =
    {
      program;
      report;
      events = List.map (fun (e : Journal.entry) -> { e with ts_ns = 0 }) events;
      cache_moved = cache_counters () <> before;
    }
  in
  if run.journal then Result.map (fun () -> o) (replays_to_trace o.events report) else Ok o

(* The bytes a user sees of an observation, in labelled parts: encoded
   report, per goal its trace gids/depths/predicates and (failing) its
   rendered diagnostic, then each journal line. *)
let fingerprint o =
  let goal (r : Solver.Obligations.goal_report) =
    let label = Pretty.predicate r.goal.goal_pred in
    let buf = Buffer.create 256 in
    Solver.Trace.fold_goals
      (fun () (g : Solver.Trace.goal_node) ->
        Printf.bprintf buf "g%d d%d %s;" g.gid g.depth (Pretty.predicate g.pred))
      () r.final;
    ("trace of " ^ label, Buffer.contents buf)
    ::
    (if r.status = Solver.Obligations.Proved then []
     else
       let goal = { r.goal with Program.goal_pred = r.final.pred } in
       let diag = Rustc_diag.Diagnostic.of_tree o.program goal (Argus.Extract.of_report r) in
       [ ("diagnostic of " ^ label, Rustc_diag.Diagnostic.to_string diag) ])
  in
  let event (e : Journal.entry) =
    ( Printf.sprintf "event %d (%s)" e.seq (Journal.event_kind e.ev),
      Argus_json.Json.to_string (Argus_json.Journal_codec.entry_to_json e) )
  in
  (("report", Argus_json.Json.to_string (Argus_json.Encode.report o.report))
  :: List.concat_map goal o.report.reports)
  @ List.map event o.events

(* The one comparator: goal counts, rounds, then per goal its status
   and every attempt's tree node for node, then the fingerprint.  With
   [~spans:false] root spans are blanked and the fingerprint, which
   prints source positions, is skipped. *)
let diff ?(spans = true) ~what a b =
  let tree t =
    let g = Solver.Jlog.rtree_of_trace t in
    match g.rg_prov with
    | Journal.Root r when not spans -> { g with rg_prov = Root { r with span = Span.dummy } }
    | _ -> g
  in
  let goal (x : Solver.Obligations.goal_report) (y : Solver.Obligations.goal_report) =
    let on = Pretty.predicate x.goal.goal_pred in
    if x.status <> y.status then Some ("status differs on goal " ^ on)
    else if List.compare_lengths x.attempts y.attempts <> 0 then
      Some ("attempt count differs on goal " ^ on)
    else
      List.combine x.attempts y.attempts
      |> List.find_opt (fun (s, t) -> not (Journal.equal_goal (tree s) (tree t)))
      |> Option.map (fun ((s : Solver.Trace.goal_node), (t : Solver.Trace.goal_node)) ->
             Printf.sprintf "proof tree differs (gid %d vs %d) on goal %s" s.gid t.gid on)
  in
  let rec first_part = function
    | (l, x) :: p, (_, y) :: q -> if String.equal x y then first_part (p, q) else Some l
    | (l, _) :: _, [] | [], (l, _) :: _ -> Some l
    | [], [] -> None
  in
  let ra = a.report and rb = b.report in
  let mismatch =
    if List.compare_lengths ra.reports rb.reports <> 0 then
      Some
        (Printf.sprintf "%d vs %d goal reports" (List.length ra.reports)
           (List.length rb.reports))
    else if ra.rounds <> rb.rounds then
      Some (Printf.sprintf "%d vs %d fixpoint rounds" ra.rounds rb.rounds)
    else
      match List.find_map Fun.id (List.map2 goal ra.reports rb.reports) with
      | Some m -> Some m
      | None when spans ->
          Option.map (fun l -> l ^ " differs") (first_part (fingerprint a, fingerprint b))
      | None -> None
  in
  match mismatch with None -> Ok () | Some m -> errorf "%s: %s" what m

(* ------------------------------------------------------------------ *)
(* The oracles: which observations must agree *)

let off = { cache = false; journal = false; doubled = false }

let check_wellformed program =
  let* o = observe { off with cache = true } program in
  let goals = List.length (Program.goals program) in
  if List.length o.report.reports = goals then Ok ()
  else errorf "%d goals but %d reports" goals (List.length o.report.reports)

(* Unjournaled runs, single and with every goal doubled (the second
   copies replay in the same run), agree cache off and on; a recording
   run is the same cache off and on, and never touches the cache. *)
let check_cache program =
  let obs run = observe run program in
  let* a = obs off in
  let* b = obs { off with cache = true } in
  let* () = diff ~what:"off vs cold" a b in
  let* a = obs { off with doubled = true } in
  let* b = obs { cache = true; journal = false; doubled = true } in
  let* () = diff ~what:"off vs doubled" a b in
  let* a = obs { off with journal = true } in
  let* b = obs { cache = true; journal = true; doubled = false } in
  let* () = diff ~what:"off vs on journaled" a b in
  if b.cache_moved then Error "a journaled run moved a cache.* counter" else Ok ()

let check_journal program = Result.map ignore (observe { off with journal = true } program)

(* The printed program has other source offsets, hence blanked spans. *)
let check_roundtrip program =
  let* printed =
    Result.map_error
      (Printf.sprintf "printed program does not load (%s)")
      (load (Printer.program program))
  in
  let* a = observe off program in
  let* b = observe off printed in
  diff ~spans:false ~what:"source vs printed" a b

let check_determinism program =
  let run = { cache = true; journal = true; doubled = false } in
  let* a = observe run program in
  let* b = observe run program in
  diff ~what:"two cold runs" a b

(* Serve-protocol equivalence.  Drive the program through a live
   in-process server and byte-compare every response payload against a
   fresh cache-off scratch run of the same program value, recorded as
   the server records it (the check render inside the journal window):
   the check report, proof-tree page, failure narrative, explain summary
   and profile table, then a seeded expand/hover walk.  An edit script
   then reloads printed versions through the session, comparing again
   at each step; a final reload of the unchanged source is a no-op. *)
let check_serve ~source p1 =
  let module Json = Argus_json.Json in
  let module Rpc = Argus_json.Rpc in
  let server = Serve.Server.create () in
  let rpc m params =
    let line =
      Rpc.request_to_line
        {
          rpc_id = Some (Rpc.Int_id 0);
          rpc_method = m;
          rpc_params = Some (Json.Obj (("session", Json.String "fuzz") :: params));
        }
    in
    match Option.map Rpc.response_of_line (Serve.Server.handle_line server line) with
    | None -> errorf "%s: no response" m
    | Some (Ok { resp_result = Ok v; _ }) -> Ok v
    | Some (Ok { resp_result = Error e; _ }) ->
        errorf "%s: rpc error %d: %s" m e.code e.message
    | Some (Error e) -> errorf "%s: bad response frame: %s" m e
  in
  (* spans name the same file in the session as in the scratch runs *)
  let with_source src = [ ("source", Json.String src); ("path", Json.String file) ] in
  let scratch program =
    Journal.reset ();
    Solver.Infer_ctx.reset_snapshot_serial ();
    Solver.Eval_cache.set_enabled false;
    let (report, (rendered, _)), entries =
      Journal.with_memory_sink (fun () ->
          let report = Solver.Obligations.solve_program program in
          (report, Serve.Check_render.run program report))
    in
    Solver.Eval_cache.set_enabled true;
    (report, rendered, List.map (fun (e : Journal.entry) -> { e with ts_ns = 0 }) entries)
  in
  let check_step ~what program =
    let report, rendered, entries = scratch program in
    let trees =
      List.filter_map
        (fun (r : Solver.Obligations.goal_report) ->
          if r.status = Solver.Obligations.Proved then None
          else Some (Argus.Extract.of_report r))
        report.reports
    in
    let* replayed =
      Result.map_error
        (Printf.sprintf "%s: scratch replay failed: %s" what)
        (Journal.replay entries)
    in
    let page t =
      Argus.Render.tree_to_string ~direction:Argus.View_state.Bottom_up t ^ "\n\n"
    in
    let rec compare = function
      | [] -> Ok trees
      | (label, m, params, want) :: rest ->
          let* v = rpc m params in
          if Option.bind (Json.member "output" v) Json.to_string_opt = Some want then
            compare rest
          else errorf "%s: %s differs from cache-off scratch" what label
    in
    compare
      [
        ("solve output", "solve", [], rendered);
        ("tree page", "tree", [], String.concat "" (List.map page trees));
        ( "explain --failures", "explain", [ ("failures", Json.Bool true) ],
          Serve.Explain_render.failures replayed );
        ( "explain summary", "explain", [],
          Serve.Explain_render.summary ~entries:(List.length entries) replayed );
        ( "profile table", "profile", [],
          Profile.top_table ~top:10 (Profile.of_entries entries) );
      ]
  in
  let seed = Hashtbl.hash source in
  (* expand/hover rows of goal 0's tree, each response = the reference view *)
  let rec walk k vs =
    match Argus.Render.view vs with
    | rows when k <= 5 && rows <> [] ->
        let l = List.nth rows ((seed + (k * 7919)) mod List.length rows) in
        let verb = if k mod 2 = 0 then "expand" else "hover" in
        let vs =
          if l.node = Argus.Render.others_row then Argus.View_state.toggle_others vs
          else if k mod 2 = 0 then Argus.View_state.expand vs l.node
          else Argus.View_state.hover vs l.node
        in
        let* got = rpc verb [ ("row", Json.Int l.index) ] in
        if Json.to_string got = Json.to_string (Serve.Server.view_json ~goal:0 vs) then
          walk (k + 1) vs
        else
          errorf "walk step %d (%s row %d) differs from reference view state" k verb
            l.index
    | _ -> Ok ()
  in
  let rec edits i last = function
    | [] -> Ok last
    | (_, version) :: rest ->
        let src = Printer.program version in
        let* _ = rpc "reload" (with_source src) in
        let* p =
          Result.map_error
            (Printf.sprintf "step %d: printed version does not re-parse (%s)" i)
            (load src)
        in
        let* _ = check_step ~what:(Printf.sprintf "step %d" i) p in
        edits (i + 1) src rest
  in
  Solver.Eval_cache.set_enabled true;
  let* _ = rpc "open" (with_source source) in
  let* trees = check_step ~what:"base" p1 in
  let* () = match trees with [] -> Ok () | t :: _ -> walk 0 (Argus.View_state.create t) in
  let* last = edits 1 source (Edit.script ~seed ~steps:2 p1) in
  let* reloaded = rpc "reload" (with_source last) in
  if Json.member "noop" reloaded = Some (Json.Bool true) then Ok ()
  else Error "unchanged reload is not a no-op"

(* ------------------------------------------------------------------ *)

type oracle = {
  name : name;
  id : string;
  doc : string;
  run : source:string -> Program.t -> (unit, string) result;
}

let table =
  let on_program f ~source:_ p = f p in
  [
    {
      name = Wellformed;
      id = "wellformed";
      doc = "generated programs parse, resolve, and solve without error";
      run = on_program check_wellformed;
    };
    {
      name = Cache;
      id = "cache";
      doc =
        "cache-off and cache-on runs agree, single and with every goal doubled (trees, \
         rounds, journal)";
      run = on_program check_cache;
    };
    {
      name = Journal;
      id = "journal";
      doc = "journal replay rebuilds the solver's direct trace forest";
      run = on_program check_journal;
    };
    {
      name = Roundtrip;
      id = "roundtrip";
      doc = "pretty-print, re-parse, re-solve reaches the same result";
      run = on_program check_roundtrip;
    };
    {
      name = Determinism;
      id = "determinism";
      doc = "two cold runs of the same source are byte-identical";
      run = on_program check_determinism;
    };
    {
      name = Serve;
      id = "serve";
      doc =
        "live serve-protocol responses byte-match fresh one-shot runs across \
         open/solve/expand/hover/explain/profile/reload";
      run = check_serve;
    };
  ]

let oracle name = List.find (fun o -> o.name = name) table
let all = List.map (fun o -> o.name) table
let to_string name = (oracle name).id
let describe name = (oracle name).doc
let of_string s = List.find_map (fun o -> if o.id = s then Some o.name else None) table

let check name ~source =
  let o = oracle name in
  let was = Solver.Eval_cache.enabled () in
  Fun.protect ~finally:(fun () -> Solver.Eval_cache.set_enabled was) @@ fun () ->
  match
    match load source with
    | Error m -> Error m
    | Ok p -> Result.map_error (fun m -> o.id ^ ": " ^ m) (o.run ~source p)
  with
  | Ok () -> Pass
  | Error m -> Fail m
  | exception e -> Fail (Printf.sprintf "%s: oracle raised %s" o.id (Printexc.to_string e))

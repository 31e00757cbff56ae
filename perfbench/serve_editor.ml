(* serve-editor: closed-loop editor clients against one in-process
   `argus serve` core.  Each client opens a corpus program, solves it,
   reads the tree, walks the view with expand/hover, asks for the
   failure narrative, reloads an edited version and solves again.  The
   benchmark encodes and decodes the JSON-RPC lines itself and sends
   each round (the next request of every client) through
   [Serve.Server.handle_batch] on a domain pool.

   Only this workload exercises RPC encode/decode, the session lock,
   journal capture under [solve], explain rendering and the pool, and it
   mixes reads (tree/expand/hover/explain) with writes (reload/solve).

   The server has no verb that closes a session, so one cycle is one
   daemon lifetime: the clients between them visit every corpus program
   once, in the cycle's own order, then a fresh server takes over with
   the process-global evaluation cache and fast-reject registry emptied
   (untimed), as a restarted daemon would have them.  Carried across
   cycles, their growth made requests 40% slower by the end of a 20 s
   run than at its start, so a faster program, getting through more
   cycles, would have read slower.  Each program has
   [variants] seeded edits; cycle c reloads edit c mod [variants]. *)

open Workload
module Json = Argus_json.Json
module Rpc = Argus_json.Rpc

let clients = 4
let walk = 4
let variants = 4

(* One pool worker.  With two, on a two-vCPU host shared with other
   tenants, every round waited on whichever domain the host had
   descheduled, and run-to-run spread outgrew the benchmark's bounds.
   The pool's hand-off and queueing are still on every request's path. *)
let workers = 1

type program = {
  id : string;
  file : string;
  source : string;
  edited : string array;  (** reload payloads: seeded edits, printed back to source *)
  parsed : Trait_lang.Program.t;
  parsed_edited : Trait_lang.Program.t array;
}

type inputs = { seed : int; programs : program array }

(* Reload edit [v] of program [i]: one of Fuzz.Edit's seven kinds, the
   ((i + v) mod 7)-th, so every seed reloads the same mix of edits and
   each cycle's 35 programs take each kind 5 times; the seed picks the
   targets.  The slowest requests are the re-solves after a reload of
   the heaviest programs, so a seed-drawn kind would move the p99. *)
let edit_of ~rng ~i v program : Trait_lang.Program.t =
  let impls = Trait_lang.Program.impls program in
  let n_impls = List.length impls in
  let n_goals = List.length (Trait_lang.Program.goals program) in
  let pick n = Random.State.int rng (max 1 n) in
  (* an impl with, or without, a where-clause; any impl if there is none *)
  let pick_impl ~where =
    match
      List.mapi (fun k (d : Trait_lang.Decl.impl) -> (k, d.impl_generics.where_clauses <> [])) impls
      |> List.filter_map (fun (k, w) -> if w = where then Some k else None)
    with
    | [] -> pick n_impls
    | l -> List.nth l (pick (List.length l))
  in
  Fuzz.Edit.apply program
    (match (i + v) mod 7 with
    | 0 -> Remove_impl (pick n_impls)
    (* only where-free impls are duplicated: see Fuzz.Edit on recursive ones *)
    | 1 -> Dup_impl (pick_impl ~where:false)
    | 2 -> Drop_where (pick_impl ~where:true)
    | 3 -> Swap_impls (pick n_impls, pick n_impls)
    | 4 -> Remove_goal (pick n_goals)
    | 5 -> Dup_goal (pick n_goals)
    | _ -> Add_struct (pick 1000))

let generate ~seed =
  let programs =
    Check_corpus.corpus ()
    |> List.mapi (fun i (e : Corpus.Harness.entry) ->
           let file = e.id ^ ".rs" in
           let parsed = Trait_lang.Resolve.program_of_string ~file e.source in
           let edited =
             Array.init variants (fun v ->
                 let rng = Random.State.make [| seed; i; v; 0x7265 |] in
                 Fuzz.Printer.program (edit_of ~rng ~i v parsed))
           in
           {
             id = e.id;
             file;
             source = e.source;
             edited;
             parsed;
             parsed_edited = Array.map (Trait_lang.Resolve.program_of_string ~file) edited;
           })
    |> Array.of_list
  in
  { seed; programs }

(* The programs each client visits in a cycle, in visit order. *)
let visits inp round =
  let v = Array.make clients [] in
  Array.iteri
    (fun k p -> v.(k mod clients) <- p :: v.(k mod clients))
    (permutation ~seed:inp.seed ~round (Array.length inp.programs));
  Array.map List.rev v

let digest inp =
  digest_strings
    (Array.to_list
       (Array.map (fun p -> String.concat "\x01" (p.source :: Array.to_list p.edited)) inp.programs)
    @ List.concat_map
        (fun round ->
          Array.to_list
            (Array.map (fun l -> String.concat "," (List.map string_of_int l)) (visits inp round)))
        [ 0; 1; 2 ])

(* Expected [solve] payloads: [Check_render.run] on a scratch solve of
   the same source, with the number of failing goals (the trees a client
   can walk).  Keyed by file name and source text: two programs can
   become the same text after an edit, but their spans name different
   files. *)
type expected = { output : string; issues : int; n_failing : int }

let reference ~inject_fault inp =
  let refs = Hashtbl.create 64 in
  Solver.Eval_cache.set_enabled false;
  Array.iter
    (fun p ->
      List.iter
        (fun (src, program) ->
          let report = Solver.Obligations.solve_program program in
          let output, issues = Serve.Check_render.run program report in
          let n_failing = List.length (Solver.Obligations.errors report) in
          Hashtbl.replace refs (p.file, src) { output; issues; n_failing })
        ((p.source, p.parsed) :: Array.to_list (Array.combine p.edited p.parsed_edited)))
    inp.programs;
  Solver.Eval_cache.set_enabled true;
  (if inject_fault then
     let p = inp.programs.(List.hd (visits inp 0).(0)) in
     let e = Hashtbl.find refs (p.file, p.source) in
     Hashtbl.replace refs (p.file, p.source) { e with output = "planted fault" });
  refs

(* ------------------------------------------------------------------ *)
(* Clients *)

type stage =
  | Open
  | Solve
  | Tree
  | Walk of int
  | Explain
  | Reload
  | Resolve
  | Done

type client = {
  cid : int;
  rng : Random.State.t;
  mutable todo : int list;
  mutable stage : stage;
  mutable failing : bool;  (** the open program has failing goals to walk *)
  mutable rows : int list;  (** rows of the last view response *)
  mutable next_id : int;
}

let session_name c p = Printf.sprintf "c%d-%s" c.cid p.id

(* The request for the client's current stage: method and params. *)
let request ~variant c p =
  let s = ("session", Json.String (session_name c p)) in
  match c.stage with
  | Open ->
      ("open", [ s; ("source", Json.String p.source); ("path", Json.String p.file) ])
  | Solve | Resolve -> ("solve", [ s ])
  | Tree -> ("tree", [ s ])
  | Walk _ ->
      let row =
        match c.rows with
        | [] -> 0
        | rows -> List.nth rows (Random.State.int c.rng (List.length rows))
      in
      let m = if Random.State.int c.rng 10 < 3 then "hover" else "expand" in
      (m, [ s; ("row", Json.Int row) ])
  | Explain -> ("explain", [ s; ("failures", Json.Bool true) ])
  | Reload ->
      ("reload", [ s; ("source", Json.String p.edited.(variant)); ("path", Json.String p.file) ])
  | Done -> assert false

let rows_of v =
  match Json.member "lines" v with
  | Some (Json.List ls) ->
      List.filter_map (fun l -> Option.bind (Json.member "row" l) Json.to_int_opt) ls
  | _ -> []

let advance c (result : Json.t) =
  c.stage <-
    (match c.stage with
    | Open -> Solve
    | Solve -> Tree
    | Tree ->
        c.rows <- [];
        if c.failing then Walk walk else Explain
    | Walk k ->
        c.rows <- rows_of result;
        if k > 1 then Walk (k - 1) else Explain
    | Explain -> Reload
    | Reload -> Resolve
    | Resolve | Done -> Done)

(* ------------------------------------------------------------------ *)

let encode ~id m params =
  Spans.with_span "json.rpc_encode" (fun () ->
      Rpc.request_to_line
        { Rpc.rpc_id = Some (Rpc.Int_id id); rpc_method = m; rpc_params = Some (Json.Obj params) })

let decode line =
  Spans.with_span "json.rpc_decode" (fun () -> Rpc.response_of_line line)

(* While tracing, the round goes through the same two public calls
   [handle_batch] makes — the pool, and [handle_line] per request — so
   each request gets its own span on the worker that ran it.  With one
   request per client per round, handle_batch's grouping by client is
   the identity. *)
let send server pool items =
  if Spans.enabled () then
    Spans.with_span "pool.run" (fun () ->
        let parent = Spans.current () in
        Pool.map pool
          (fun (client, m, line) ->
            (client, Spans.with_span ~parent ("serve." ^ m) (fun () -> Serve.Server.handle_line server line)))
          items)
  else
    Serve.Server.handle_batch ~pool server (List.map (fun (c, _, l) -> (c, l)) items)

(* Journal capture, probed while tracing: a resolve inside a memory
   sink minus the same resolve without one, on a private warm session. *)
let probe_journal session program =
  ignore (Solver.Session.edit session program);
  ignore (Solver.Session.resolve session);
  let _, plain = timed (fun () -> Solver.Session.resolve session) in
  let (_, entries), journaled =
    timed (fun () -> Journal.with_memory_sink (fun () -> Solver.Session.resolve session))
  in
  sample "journal.capture_ns" (float_of_int (journaled - plain));
  sample "journal.events" (float_of_int (List.length entries))

let start inp refs =
  let pool = Pool.create ~jobs:workers in
  let probe = Solver.Session.create () in
  let server = ref (Serve.Server.create ()) in
  let cs = ref [||] and round = ref (-1) and fresh = ref false in
  let new_cycle () =
    Solver.Eval_cache.clear ();
    Solver.Fast_reject.clear ();
    server := Serve.Server.create ();
    incr round;
    fresh := true;
    let visits = visits inp !round in
    cs :=
      Array.init clients (fun cid ->
          {
            cid;
            rng = Random.State.make [| inp.seed; !round; cid; 0x6564 |];
            todo = visits.(cid);
            stage = Open;
            failing = false;
            rows = [];
            next_id = 1;
          })
  in
  new_cycle ();
  let active () = Array.to_list !cs |> List.filter (fun c -> c.todo <> []) in
  let step () =
    fresh := false;
    let live = active () in
    let sent =
      List.map
        (fun c ->
          let p = inp.programs.(List.hd c.todo) in
          let stage = c.stage in
          if stage = Open then c.failing <- (Hashtbl.find refs (p.file, p.source)).n_failing > 0;
          let m, params = request ~variant:(!round mod variants) c p in
          let line = encode ~id:c.next_id m params in
          c.next_id <- c.next_id + 1;
          (c, p, stage, m, line))
        live
    in
    let responses =
      send !server pool (List.map (fun (c, _, _, m, line) -> (c.cid, m, line)) sent)
    in
    let outcomes =
      List.map2
        (fun (c, p, stage, _, _) (_, resp) ->
          let result =
            match Option.map decode resp with
            | Some (Ok { Rpc.resp_result = Ok v; _ }) -> Some v
            | _ -> None
          in
          (match result with
          | Some v ->
              advance c v;
              if c.stage = Done then begin
                c.todo <- List.tl c.todo;
                c.stage <- Open
              end
          | None ->
              (* a failed request ends this client's visit *)
              c.todo <- List.tl c.todo;
              c.stage <- Open);
          (p, stage, !round mod variants, result))
        sent responses
    in
    let check () =
      if active () = [] then new_cycle ();
      List.fold_left
        (fun bad (p, stage, variant, result) ->
          match (stage, result) with
          | _, None -> bad + 1
          | (Solve | Resolve), Some v ->
              let src = if stage = Solve then p.source else p.edited.(variant) in
              let { output; issues; _ } = Hashtbl.find refs (p.file, src) in
              if Spans.enabled () then
                probe_journal probe
                  (if stage = Solve then p.parsed else p.parsed_edited.(variant));
              if
                Json.member "output" v = Some (Json.String output)
                && Json.member "issues" v = Some (Json.Int issues)
              then bad
              else bad + 1
          | _ -> bad)
        0 outcomes
    in
    { requests = List.length sent; check }
  in
  {
    step;
    cycle_start = (fun () -> !fresh);
    teardown = (fun () -> Pool.shutdown pool);
  }

let workload =
  W
    {
      name = "serve-editor";
      generate;
      digest;
      reference;
      start;
    }

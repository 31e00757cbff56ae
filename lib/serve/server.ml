module Json = Argus_json.Json
module Rpc = Argus_json.Rpc

let c_requests = Telemetry.counter "serve.requests"
let c_errors = Telemetry.counter "serve.errors"
let c_sessions = Telemetry.counter "serve.sessions"
let c_solves = Telemetry.counter "serve.solves"
let c_reloads = Telemetry.counter "serve.reloads"
let c_batches = Telemetry.counter "serve.batches"

(* Everything a solve leaves behind for the read-only verbs: the
   rendered check report, the normalized search journal (explain /
   profile), and one extracted proof tree per failing goal (tree /
   expand / hover). *)
type solved = {
  sv_output : string;
  sv_issues : int;
  sv_journal : Journal.entry list;  (** ts normalized to 0, seq from 0 *)
  sv_trees : Argus.Proof_tree.t array;  (** failing goals, report order *)
}

type session = {
  ss_name : string;
  ss_session : Solver.Session.t;
  ss_lock : Mutex.t;
  mutable ss_source : string;
  mutable ss_solved : solved option;
  ss_views : (int, Argus.View_state.t) Hashtbl.t;  (** per failing goal *)
}

type t = {
  srv_cfg : Solver.Solve.config;
  srv_sessions : (string, session) Hashtbl.t;
  srv_lock : Mutex.t;
  srv_next : int Atomic.t;
  srv_down : bool Atomic.t;
}

let create ?(cfg = Solver.Solve.default_config) () =
  {
    srv_cfg = cfg;
    srv_sessions = Hashtbl.create 8;
    srv_lock = Mutex.create ();
    srv_next = Atomic.make 1;
    srv_down = Atomic.make false;
  }

let shutting_down t = Atomic.get t.srv_down

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* ------------------------------------------------------------------ *)
(* Param accessors: every getter returns [Error] with a -32602 object
   naming the offending member, so bad-params responses are uniform. *)

let invalid msg = Rpc.error_obj ~code:Rpc.invalid_params msg

let member name params =
  match params with Some p -> Json.member name p | None -> None

let opt_string name params =
  match member name params with
  | None | Some Json.Null -> Ok None
  | Some (Json.String s) -> Ok (Some s)
  | Some _ -> Error (invalid (Printf.sprintf "param `%s` must be a string" name))

let opt_int name params =
  match member name params with
  | None | Some Json.Null -> Ok None
  | Some (Json.Int n) -> Ok (Some n)
  | Some _ -> Error (invalid (Printf.sprintf "param `%s` must be an integer" name))

let opt_bool name params =
  match member name params with
  | None | Some Json.Null -> Ok None
  | Some (Json.Bool b) -> Ok (Some b)
  | Some _ -> Error (invalid (Printf.sprintf "param `%s` must be a boolean" name))

let req_string name params =
  match opt_string name params with
  | Ok (Some s) -> Ok s
  | Ok None -> Error (invalid (Printf.sprintf "missing required param `%s`" name))
  | Error e -> Error e

let req_int name params =
  match opt_int name params with
  | Ok (Some n) -> Ok n
  | Ok None -> Error (invalid (Printf.sprintf "missing required param `%s`" name))
  | Error e -> Error e

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Loading: same error strings as the CLI's load path, so load-failure
   responses match what `argus check` prints to stderr. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_program ~file source =
  try Ok (Trait_lang.Resolve.program_of_string ~file source) with
  | Trait_lang.Parser.Error e ->
      Error
        (Printf.sprintf "%s: parse error: %s"
           (Trait_lang.Span.to_string e.span)
           e.message)
  | Trait_lang.Resolve.Error e ->
      Error
        (Printf.sprintf "%s: %s"
           (Trait_lang.Span.to_string (Trait_lang.Resolve.error_span e))
           (Trait_lang.Resolve.error_message e))

(* [source]/[path] params: inline text wins (with [path] still naming
   the spans); otherwise the file is read.  Returns (file, source). *)
let source_of_params params =
  let* source = opt_string "source" params in
  let* path = opt_string "path" params in
  match (source, path) with
  | Some src, p -> Ok (Option.value p ~default:"<serve>", src)
  | None, Some p -> (
      match read_file p with
      | src -> Ok (p, src)
      | exception Sys_error m -> Error (Rpc.error_obj ~code:Rpc.load_error m))
  | None, None -> Error (invalid "need `source` or `path`")

(* ------------------------------------------------------------------ *)
(* Result payloads *)

let expander_string = function
  | Argus.Render.Open -> "open"
  | Argus.Render.Closed -> "closed"
  | Argus.Render.Leaf -> "leaf"

let view_json ~goal vs =
  let lines =
    List.map
      (fun (l : Argus.Render.line) ->
        Json.Obj
          [
            ("row", Json.Int l.index);
            ("node", Json.Int l.node);
            ("indent", Json.Int l.indent);
            ("expander", Json.String (expander_string l.expander));
            ("text", Json.String l.text);
          ])
      (Argus.Render.view vs)
  in
  let minibuffer =
    List.map (fun s -> Json.String s) (Argus.View_state.minibuffer vs)
  in
  Json.Obj
    [
      ("goal", Json.Int goal);
      ("lines", Json.List lines);
      ("minibuffer", Json.List minibuffer);
    ]

(* ------------------------------------------------------------------ *)
(* Session lookup *)

let find_session t name =
  match with_lock t.srv_lock (fun () -> Hashtbl.find_opt t.srv_sessions name) with
  | Some s -> Ok s
  | None ->
      Error (Rpc.error_obj ~code:Rpc.unknown_session ("unknown session: " ^ name))

let solved_of s =
  match s.ss_solved with
  | Some sv -> Ok sv
  | None ->
      Error
        (Rpc.error_obj ~code:Rpc.not_solved
           (Printf.sprintf "session `%s` has no solve result yet; call `solve` first"
              s.ss_name))

(* ------------------------------------------------------------------ *)
(* Verbs *)

let handle_open t params =
  let* file, source = source_of_params params in
  let* name = opt_string "session" params in
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "s%d" (Atomic.fetch_and_add t.srv_next 1)
  in
  match parse_program ~file source with
  | Error m -> Error (Rpc.error_obj ~code:Rpc.load_error m)
  | Ok program ->
      let* session =
        with_lock t.srv_lock (fun () ->
            if Hashtbl.mem t.srv_sessions name then
              Error
                (Rpc.error_obj ~code:Rpc.session_exists
                   ("session already exists: " ^ name))
            else begin
              let s =
                {
                  ss_name = name;
                  ss_session = Solver.Session.create ~cfg:t.srv_cfg ();
                  ss_lock = Mutex.create ();
                  ss_source = source;
                  ss_solved = None;
                  ss_views = Hashtbl.create 4;
                }
              in
              Hashtbl.add t.srv_sessions name s;
              Telemetry.incr c_sessions;
              Ok s
            end)
      in
      with_lock session.ss_lock (fun () ->
          ignore (Solver.Session.edit session.ss_session program);
          Ok
            (Json.Obj
               [
                 ("session", Json.String name);
                 ("goals", Json.Int (List.length (Trait_lang.Program.goals program)));
               ]))

let handle_reload t params =
  Telemetry.incr c_reloads;
  let* name = req_string "session" params in
  let* s = find_session t name in
  let* file, source = source_of_params params in
  with_lock s.ss_lock (fun () ->
      (* An unchanged source re-uses the already-resolved Program value:
         program stamps are fresh per parse, so re-parsing would defeat
         the stamp-equality short-circuit in Session.edit and evict the
         whole cache for a no-op save. *)
      let program =
        if String.equal source s.ss_source then
          match Solver.Session.program s.ss_session with
          | Some p -> Ok p
          | None -> parse_program ~file source
        else parse_program ~file source
      in
      match program with
      | Error m -> Error (Rpc.error_obj ~code:Rpc.load_error m)
      | Ok program ->
          let noop =
            match Solver.Session.program s.ss_session with
            | Some old ->
                Trait_lang.Program.stamp old = Trait_lang.Program.stamp program
            | None -> false
          in
          ignore (Solver.Session.edit s.ss_session program);
          s.ss_source <- source;
          s.ss_solved <- None;
          Hashtbl.reset s.ss_views;
          Ok (Json.Obj [ ("noop", Json.Bool noop) ]))

let handle_solve t params =
  Telemetry.incr c_solves;
  let* name = req_string "session" params in
  let* s = find_session t name in
  with_lock s.ss_lock (fun () ->
      match Solver.Session.program s.ss_session with
      | None -> Error (Rpc.error_obj ~code:Rpc.load_error "no program loaded")
      | Some program ->
          (* Resolve and render inside one journal window, mirroring
             `argus check`: the type-check pass inside the renderer
             generates obligations that journal through the same
             machinery, so event order matches `argus check
             --events-out` byte for byte. *)
          let (output, issues), entries =
            Journal.with_memory_sink (fun () ->
                let report = Solver.Session.resolve s.ss_session in
                Check_render.run ~profile_pipeline:(Telemetry.enabled ()) program
                  report)
          in
          let entries =
            List.map (fun (e : Journal.entry) -> { e with Journal.ts_ns = 0 }) entries
          in
          let report = Option.get (Solver.Session.report s.ss_session) in
          let trees =
            report.Solver.Obligations.reports
            |> List.filter (fun (r : Solver.Obligations.goal_report) ->
                   r.status <> Solver.Obligations.Proved)
            |> List.map Argus.Extract.of_report
            |> Array.of_list
          in
          s.ss_solved <-
            Some { sv_output = output; sv_issues = issues; sv_journal = entries; sv_trees = trees };
          Hashtbl.reset s.ss_views;
          Ok
            (Json.Obj
               [ ("output", Json.String output); ("issues", Json.Int issues) ]))

let handle_tree t params =
  let* name = req_string "session" params in
  let* s = find_session t name in
  let* dir = opt_string "direction" params in
  let* direction =
    match dir with
    | None | Some "bottom-up" -> Ok Argus.View_state.Bottom_up
    | Some "top-down" -> Ok Argus.View_state.Top_down
    | Some other ->
        Error (invalid (Printf.sprintf "unknown direction %S" other))
  in
  with_lock s.ss_lock (fun () ->
      let* sv = solved_of s in
      let buf = Buffer.create 256 in
      Array.iter
        (fun tree ->
          Buffer.add_string buf (Argus.Render.tree_to_string ~direction tree);
          Buffer.add_string buf "\n\n")
        sv.sv_trees;
      Ok (Json.Obj [ ("output", Json.String (Buffer.contents buf)) ]))

(* expand/hover share everything but the state transition applied to the
   addressed node. *)
let handle_view_op t params op =
  let* name = req_string "session" params in
  let* s = find_session t name in
  let* goal = opt_int "goal" params in
  let goal = Option.value goal ~default:0 in
  let* row = req_int "row" params in
  with_lock s.ss_lock (fun () ->
      let* sv = solved_of s in
      if goal < 0 || goal >= Array.length sv.sv_trees then
        Error
          (invalid
             (Printf.sprintf "no failing goal %d (session has %d)" goal
                (Array.length sv.sv_trees)))
      else begin
        let vs =
          match Hashtbl.find_opt s.ss_views goal with
          | Some vs -> vs
          | None -> Argus.View_state.create sv.sv_trees.(goal)
        in
        let lines = Argus.Render.view vs in
        match
          List.find_opt (fun (l : Argus.Render.line) -> l.index = row) lines
        with
        | None -> Error (invalid (Printf.sprintf "no such row %d" row))
        | Some l ->
            let vs =
              if l.node = Argus.Render.others_row then
                Argus.View_state.toggle_others vs
              else op vs l.node
            in
            Hashtbl.replace s.ss_views goal vs;
            Ok (view_json ~goal vs)
      end)

let handle_explain t params =
  let* name = req_string "session" params in
  let* s = find_session t name in
  let* failures = opt_bool "failures" params in
  let failures = Option.value failures ~default:false in
  let* node = opt_int "node" params in
  with_lock s.ss_lock (fun () ->
      let* sv = solved_of s in
      match Journal.replay sv.sv_journal with
      | Error m ->
          Error (Rpc.error_obj ~code:Rpc.load_error ("inconsistent journal: " ^ m))
      | Ok tree -> (
          let output =
            match node with
            | Some id -> Explain_render.node tree id
            | None ->
                if failures then Ok (Explain_render.failures tree)
                else
                  Ok
                    (Explain_render.summary
                       ~entries:(List.length sv.sv_journal) tree)
          in
          match output with
          | Error m -> Error (invalid m)
          | Ok out -> Ok (Json.Obj [ ("output", Json.String out) ])))

let handle_profile t params =
  let* name = req_string "session" params in
  let* s = find_session t name in
  let* top = opt_int "top" params in
  let top = Option.value top ~default:10 in
  with_lock s.ss_lock (fun () ->
      let* sv = solved_of s in
      let prof = Profile.of_entries sv.sv_journal in
      Ok
        (Json.Obj
           [
             ("output", Json.String (Profile.top_table ~top prof));
             ("total_ns", Json.Int prof.Profile.total_ns);
             ("zero_ts", Json.Bool prof.Profile.zero_ts);
           ]))

let handle_shutdown t _params =
  Atomic.set t.srv_down true;
  Ok (Json.Obj [ ("ok", Json.Bool true) ])

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let dispatch t rpc_method params =
  match rpc_method with
  | "open" -> handle_open t params
  | "reload" -> handle_reload t params
  | "solve" -> handle_solve t params
  | "tree" -> handle_tree t params
  | "expand" -> handle_view_op t params Argus.View_state.expand
  | "hover" -> handle_view_op t params Argus.View_state.hover
  | "explain" -> handle_explain t params
  | "profile" -> handle_profile t params
  | "shutdown" -> handle_shutdown t params
  | m ->
      Error (Rpc.error_obj ~code:Rpc.method_not_found ("method not found: " ^ m))

let handle_line t line =
  Telemetry.incr c_requests;
  match Rpc.request_of_line line with
  | Error e ->
      Telemetry.incr c_errors;
      (* parse / invalid-request failures answer with id null per spec *)
      Some (Rpc.response_to_line (Rpc.fail Rpc.Null_id e))
  | Ok req ->
      let result =
        if shutting_down t && req.Rpc.rpc_method <> "shutdown" then
          Error (Rpc.error_obj ~code:Rpc.shutting_down "server is shutting down")
        else dispatch t req.Rpc.rpc_method req.Rpc.rpc_params
      in
      if Result.is_error result then Telemetry.incr c_errors;
      (match req.Rpc.rpc_id with
      | None -> None  (* notification: no response, even on error *)
      | Some id ->
          let resp =
            match result with
            | Ok v -> Rpc.ok id v
            | Error e -> Rpc.fail id e
          in
          Some (Rpc.response_to_line resp))

let handle_batch ?pool t items =
  Telemetry.incr c_batches;
  (* Group by client, preserving each client's request order; one
     worker owns a whole client group, which is the per-session
     serialization that keeps per-client streams deterministic. *)
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iteri
    (fun i (client, line) ->
      match Hashtbl.find_opt tbl client with
      | None ->
          order := client :: !order;
          Hashtbl.add tbl client (ref [ (i, line) ])
      | Some r -> r := (i, line) :: !r)
    items;
  let groups =
    List.rev_map (fun c -> (c, List.rev !(Hashtbl.find tbl c))) !order
  in
  let run_group (client, reqs) =
    List.map (fun (i, line) -> (i, client, handle_line t line)) reqs
  in
  let results =
    match pool with
    | Some p -> Pool.map p run_group groups
    | None -> List.map run_group groups
  in
  let n = List.length items in
  let arr = Array.make n (0, None) in
  List.iter (List.iter (fun (i, c, r) -> arr.(i) <- (c, r))) results;
  Array.to_list arr

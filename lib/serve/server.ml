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
  mutable ss_program : Trait_lang.Program.t;
  mutable ss_source : string;
  mutable ss_solved : solved option;
  ss_views : (int, Argus.View_state.t) Hashtbl.t;  (** per failing goal *)
}

type t = {
  srv_cfg : Solver.Solve.config;
  srv_sessions : (string, session) Hashtbl.t;
  mutable srv_next : int;
  mutable srv_down : bool;
}

let create ?(cfg = Solver.Solve.default_config) () =
  {
    srv_cfg = cfg;
    srv_sessions = Hashtbl.create 8;
    srv_next = 1;
    srv_down = false;
  }

let shutting_down t = t.srv_down

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
(* Loading.  [source]/[path] params: inline text wins (with [path]
   still naming the spans); otherwise the file is read.  Returns (file,
   source).  Load errors are {!Trait_lang.Resolve.load}'s, the strings
   `argus check` prints to stderr. *)
let source_of_params params =
  let* source = opt_string "source" params in
  let* path = opt_string "path" params in
  match (source, path) with
  | Some src, p -> Ok (Option.value p ~default:"<serve>", src)
  | None, Some p -> (
      match In_channel.with_open_bin p In_channel.input_all with
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
  match Hashtbl.find_opt t.srv_sessions name with
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
    | None ->
        (* the next [s<n>] no client has already chosen *)
        let rec fresh () =
          let n = Printf.sprintf "s%d" t.srv_next in
          t.srv_next <- t.srv_next + 1;
          if Hashtbl.mem t.srv_sessions n then fresh () else n
        in
        fresh ()
  in
  match Trait_lang.Resolve.load ~file source with
  | Error m -> Error (Rpc.error_obj ~code:Rpc.load_error m)
  | Ok program ->
      if Hashtbl.mem t.srv_sessions name then
        Error (Rpc.error_obj ~code:Rpc.session_exists ("session already exists: " ^ name))
      else begin
        Hashtbl.add t.srv_sessions name
          {
            ss_name = name;
            ss_program = program;
            ss_source = source;
            ss_solved = None;
            ss_views = Hashtbl.create 4;
          };
        Telemetry.incr c_sessions;
        Ok
          (Json.Obj
             [
               ("session", Json.String name);
               ("goals", Json.Int (List.length (Trait_lang.Program.goals program)));
             ])
      end

let handle_reload t params =
  Telemetry.incr c_reloads;
  let* name = req_string "session" params in
  let* s = find_session t name in
  let* file, source = source_of_params params in
  (* An unchanged source re-uses the loaded Program value, so a no-op
     save skips the parse and reports [noop]. *)
  let program =
    if String.equal source s.ss_source then Ok s.ss_program
    else Trait_lang.Resolve.load ~file source
  in
  match program with
  | Error m -> Error (Rpc.error_obj ~code:Rpc.load_error m)
  | Ok program ->
      let noop = program == s.ss_program in
      s.ss_program <- program;
      s.ss_source <- source;
      s.ss_solved <- None;
      Hashtbl.reset s.ss_views;
      Ok (Json.Obj [ ("noop", Json.Bool noop) ])

let handle_solve t params =
  Telemetry.incr c_solves;
  let* name = req_string "session" params in
  let* s = find_session t name in
  let program = s.ss_program in
  (* Resolve and render inside one journal window, mirroring `argus
     check`: the type-check pass inside the renderer generates
     obligations that journal through the same machinery, so event
     order matches `argus check --events-out` byte for byte.  The ID
     and snapshot counters restart first, so the stream matches a
     from-scratch run. *)
  let (report, (output, issues)), entries =
    Journal.with_memory_sink (fun () ->
        Journal.reset_ids ();
        Solver.Infer_ctx.reset_snapshot_serial ();
        let report = Solver.Obligations.solve_program ~cfg:t.srv_cfg program in
        (report, Check_render.run ~profile_pipeline:(Telemetry.enabled ()) program report))
  in
  let entries =
    List.map (fun (e : Journal.entry) -> { e with Journal.ts_ns = 0 }) entries
  in
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
  Ok (Json.Obj [ ("output", Json.String output); ("issues", Json.Int issues) ])

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
  let* sv = solved_of s in
  let buf = Buffer.create 256 in
  Array.iter
    (fun tree ->
      Buffer.add_string buf (Argus.Render.tree_to_string ~direction tree);
      Buffer.add_string buf "\n\n")
    sv.sv_trees;
  Ok (Json.Obj [ ("output", Json.String (Buffer.contents buf)) ])

(* expand/hover share everything but the state transition applied to the
   addressed node. *)
let handle_view_op t params op =
  let* name = req_string "session" params in
  let* s = find_session t name in
  let* goal = opt_int "goal" params in
  let goal = Option.value goal ~default:0 in
  let* row = req_int "row" params in
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
  end

let handle_explain t params =
  let* name = req_string "session" params in
  let* s = find_session t name in
  let* failures = opt_bool "failures" params in
  let failures = Option.value failures ~default:false in
  let* node = opt_int "node" params in
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
      | Ok out -> Ok (Json.Obj [ ("output", Json.String out) ]))

let handle_profile t params =
  let* name = req_string "session" params in
  let* s = find_session t name in
  let* top = opt_int "top" params in
  let top = Option.value top ~default:10 in
  let* sv = solved_of s in
  let prof = Profile.of_entries sv.sv_journal in
  Ok
    (Json.Obj
       [
         ("output", Json.String (Profile.top_table ~top prof));
         ("total_ns", Json.Int prof.Profile.total_ns);
         ("zero_ts", Json.Bool prof.Profile.zero_ts);
       ])

let handle_shutdown t _params =
  t.srv_down <- true;
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

let handle_batch ?pool:_ t items =
  Telemetry.incr c_batches;
  (* Run client groups in the order each client first appears, each
     client's requests in its own order; answer in input order. *)
  let first = Hashtbl.create 8 in
  List.iteri (fun i (c, _) -> if not (Hashtbl.mem first c) then Hashtbl.add first c i) items;
  let runs =
    List.stable_sort
      (fun (_, (a, _)) (_, (b, _)) -> compare (Hashtbl.find first a) (Hashtbl.find first b))
      (List.mapi (fun i item -> (i, item)) items)
  in
  let responses = Array.make (List.length items) None in
  List.iter (fun (i, (_, line)) -> responses.(i) <- handle_line t line) runs;
  List.mapi (fun i (c, _) -> (c, responses.(i))) items

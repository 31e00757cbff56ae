(** Conformance tests for the [argus serve] daemon: JSON-RPC framing
    round-trips, golden request/response transcripts per verb (including
    the error objects for unknown methods, bad params, missing sessions,
    and parse failures), corpus-wide byte-equivalence between serve
    responses and the one-shot CLI artifacts, concurrency determinism
    (N interleaved clients vs each alone), shutdown draining, and the
    PR 9 regression: reloading an unchanged file is a stamp-equal no-op
    with zero evictions. *)

module Json = Argus_json.Json
module Rpc = Argus_json.Rpc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* Every serve test starts from a cold shared state: cache on and
   empty, telemetry off unless the test needs counters. *)
let fresh_state () =
  Telemetry.disable ();
  Solver.Eval_cache.set_enabled true;
  Solver.Eval_cache.clear ()

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let line ?(id = 1) m params =
  Rpc.request_to_line
    {
      Rpc.rpc_id = Some (Rpc.Int_id id);
      rpc_method = m;
      rpc_params = Some (Json.Obj params);
    }

(* Issue one request and return the decoded result object, failing the
   test on any protocol-level error. *)
let call server m params =
  match Serve.Server.handle_line server (line m params) with
  | None -> Alcotest.failf "%s: no response" m
  | Some resp -> (
      match Rpc.response_of_line resp with
      | Ok { Rpc.resp_result = Ok v; _ } -> v
      | Ok { Rpc.resp_result = Error e; _ } ->
          Alcotest.failf "%s: rpc error %d: %s" m e.Rpc.code e.Rpc.message
      | Error e -> Alcotest.failf "%s: bad response frame: %s" m e)

(* Issue one request and return the error object it must answer with. *)
let call_err server m params =
  match Serve.Server.handle_line server (line m params) with
  | None -> Alcotest.failf "%s: no response" m
  | Some resp -> (
      match Rpc.response_of_line resp with
      | Ok { Rpc.resp_result = Error e; _ } -> e
      | Ok { Rpc.resp_result = Ok _; _ } ->
          Alcotest.failf "%s: expected an error response" m
      | Error e -> Alcotest.failf "%s: bad response frame: %s" m e)

let str name v =
  match Option.bind (Json.member name v) Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "response has no string member `%s`" name

let int_member name v =
  match Json.member name v with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "response has no int member `%s`" name

let bool_member name v =
  match Json.member name v with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "response has no bool member `%s`" name

(* ------------------------------------------------------------------ *)
(* JSON-RPC framing *)

let test_rpc_roundtrip () =
  let cases =
    [
      {
        Rpc.rpc_id = Some (Rpc.Int_id 7);
        rpc_method = "solve";
        rpc_params = Some (Json.Obj [ ("session", Json.String "a") ]);
      };
      {
        Rpc.rpc_id = Some (Rpc.String_id "req-1");
        rpc_method = "tree";
        rpc_params = Some (Json.List [ Json.Int 1; Json.Int 2 ]);
      };
      { Rpc.rpc_id = Some Rpc.Null_id; rpc_method = "shutdown"; rpc_params = None };
      (* notification: no id member at all *)
      { Rpc.rpc_id = None; rpc_method = "shutdown"; rpc_params = None };
    ]
  in
  List.iter
    (fun req ->
      match Rpc.request_of_line (Rpc.request_to_line req) with
      | Error e -> Alcotest.failf "round-trip failed: %s" e.Rpc.message
      | Ok got ->
          Alcotest.(check bool) "id survives" true (got.Rpc.rpc_id = req.Rpc.rpc_id);
          Alcotest.(check string) "method survives" req.Rpc.rpc_method
            got.Rpc.rpc_method;
          Alcotest.(check bool) "params survive" true
            (got.Rpc.rpc_params = req.Rpc.rpc_params))
    cases;
  (* responses, both arms *)
  let ok = Rpc.ok (Rpc.Int_id 3) (Json.Obj [ ("x", Json.Int 1) ]) in
  (match Rpc.response_of_line (Rpc.response_to_line ok) with
  | Ok got -> Alcotest.(check bool) "ok response round-trips" true (got = ok)
  | Error e -> Alcotest.failf "ok response failed to decode: %s" e);
  let fail =
    Rpc.fail (Rpc.String_id "r") (Rpc.error_obj ~code:Rpc.invalid_params "bad row")
  in
  match Rpc.response_of_line (Rpc.response_to_line fail) with
  | Ok got -> Alcotest.(check bool) "error response round-trips" true (got = fail)
  | Error e -> Alcotest.failf "error response failed to decode: %s" e

let test_rpc_decode_errors () =
  let code_of l =
    match Rpc.request_of_line l with
    | Error e -> e.Rpc.code
    | Ok _ -> Alcotest.failf "line decoded unexpectedly: %s" l
  in
  Alcotest.(check int) "garbage is a parse error" Rpc.parse_error
    (code_of "not json at all");
  Alcotest.(check int) "wrong jsonrpc version" Rpc.invalid_request
    (code_of {|{"jsonrpc":"1.0","id":1,"method":"solve"}|});
  Alcotest.(check int) "missing jsonrpc member" Rpc.invalid_request
    (code_of {|{"id":1,"method":"solve"}|});
  Alcotest.(check int) "non-string method" Rpc.invalid_request
    (code_of {|{"jsonrpc":"2.0","id":1,"method":5}|});
  Alcotest.(check int) "scalar params" Rpc.invalid_request
    (code_of {|{"jsonrpc":"2.0","id":1,"method":"solve","params":"x"}|});
  Alcotest.(check int) "boolean id" Rpc.invalid_request
    (code_of {|{"jsonrpc":"2.0","id":true,"method":"solve"}|})

(* ------------------------------------------------------------------ *)
(* Golden transcript: one session through every verb *)

(* A two-goal program with one deliberate failure, so every verb has
   something to say. *)
let failing_src =
  "struct A; struct B; trait T1 {} trait T2 {} impl T1 for A {} goal A: T1; \
   goal B: T2;"

let test_golden_transcript () =
  fresh_state ();
  let server = Serve.Server.create () in
  (* open: names the session and reports the goal count *)
  let cache0 = Solver.Eval_cache.stats () in
  let opened =
    call server "open"
      [ ("session", Json.String "t"); ("source", Json.String failing_src) ]
  in
  Alcotest.(check string) "open echoes the session name" "t" (str "session" opened);
  Alcotest.(check int) "open counts the goals" 2 (int_member "goals" opened);
  Alcotest.(check bool) "initial load evicts nothing" true
    (Solver.Eval_cache.stats () = cache0);
  (* solve: the argus check report *)
  let solved = call server "solve" [ ("session", Json.String "t") ] in
  Alcotest.(check int) "one issue" 1 (int_member "issues" solved);
  let out = str "output" solved in
  Alcotest.(check bool) "report shows the proved goal" true
    (contains ~affix:"[ok] A: T1" out);
  Alcotest.(check bool) "report shows the failure" true
    (contains ~affix:"[ERROR] B: T2" out);
  (* tree: one page per failing goal *)
  let treed = call server "tree" [ ("session", Json.String "t") ] in
  let tree_out = str "output" treed in
  Alcotest.(check bool) "tree page names the failing goal" true
    (contains ~affix:"B: T2" tree_out);
  Alcotest.(check bool) "tree page ends with a blank line" true
    (String.length tree_out >= 2
    && String.sub tree_out (String.length tree_out - 2) 2 = "\n\n");
  (* expand / hover: view rows against an independently-driven state *)
  let viewed =
    call server "expand" [ ("session", Json.String "t"); ("row", Json.Int 0) ]
  in
  Alcotest.(check int) "view addresses goal 0" 0 (int_member "goal" viewed);
  (match Json.member "lines" viewed with
  | Some (Json.List (first :: _)) ->
      Alcotest.(check int) "first row is row 0" 0 (int_member "row" first);
      Alcotest.(check bool) "first row has an expander" true
        (match Json.member "expander" first with
        | Some (Json.String ("open" | "closed" | "leaf")) -> true
        | _ -> false)
  | _ -> Alcotest.fail "expand returned no lines");
  let hovered =
    call server "hover" [ ("session", Json.String "t"); ("row", Json.Int 0) ]
  in
  Alcotest.(check bool) "hover returns a minibuffer" true
    (match Json.member "minibuffer" hovered with Some (Json.List _) -> true | _ -> false);
  (* explain: summary, failures, and a node drill-down *)
  let summary = call server "explain" [ ("session", Json.String "t") ] in
  Alcotest.(check bool) "summary opens with the journal header" true
    (String.length (str "output" summary) > 8
    && String.sub (str "output" summary) 0 8 = "journal:");
  let failures =
    call server "explain" [ ("session", Json.String "t"); ("failures", Json.Bool true) ]
  in
  Alcotest.(check bool) "failure narrative names the failing goal" true
    (contains ~affix:"B: T2" (str "output" failures));
  let node =
    call server "explain" [ ("session", Json.String "t"); ("node", Json.Int 0) ]
  in
  Alcotest.(check bool) "node drill-down is non-empty" true
    (String.length (str "output" node) > 0);
  (* profile: normalized journals have no timestamps, and say so *)
  let prof = call server "profile" [ ("session", Json.String "t") ] in
  Alcotest.(check bool) "profile flags the zero-timestamp journal" true
    (bool_member "zero_ts" prof);
  (* reload: a changed source is not a no-op and invalidates views *)
  let edited = failing_src ^ " impl T2 for B {}" in
  let reloaded =
    call server "reload"
      [ ("session", Json.String "t"); ("source", Json.String edited) ]
  in
  Alcotest.(check bool) "changed reload is not a no-op" false
    (bool_member "noop" reloaded);
  let resolved = call server "solve" [ ("session", Json.String "t") ] in
  Alcotest.(check int) "the fix resolves the failure" 0 (int_member "issues" resolved);
  (* shutdown: acknowledged once, then everything gets -32003 *)
  let down = call server "shutdown" [] in
  Alcotest.(check bool) "shutdown acknowledges" true (bool_member "ok" down);
  Alcotest.(check bool) "server reports shutting down" true
    (Serve.Server.shutting_down server);
  let e = call_err server "solve" [ ("session", Json.String "t") ] in
  Alcotest.(check int) "post-shutdown requests get -32003" Rpc.shutting_down
    e.Rpc.code

let test_golden_errors () =
  fresh_state ();
  let server = Serve.Server.create () in
  (* unknown method: the exact golden error line *)
  (match Serve.Server.handle_line server (line ~id:7 "nope" []) with
  | Some resp ->
      Alcotest.(check string) "unknown-method error line"
        {|{"jsonrpc":"2.0","id":7,"error":{"code":-32601,"message":"method not found: nope"}}|}
        resp
  | None -> Alcotest.fail "unknown method got no response");
  (* parse failure: answered with id null, code -32700 *)
  (match Serve.Server.handle_line server "{{{" with
  | Some resp -> (
      match Rpc.response_of_line resp with
      | Ok { Rpc.resp_id = Rpc.Null_id; resp_result = Error e } ->
          Alcotest.(check int) "parse error code" Rpc.parse_error e.Rpc.code
      | _ -> Alcotest.fail "parse failure not answered with id null + error")
  | None -> Alcotest.fail "parse failure got no response");
  (* invalid request: also id null *)
  (match Serve.Server.handle_line server {|{"jsonrpc":"2.0","id":1,"method":9}|} with
  | Some resp -> (
      match Rpc.response_of_line resp with
      | Ok { Rpc.resp_id = Rpc.Null_id; resp_result = Error e } ->
          Alcotest.(check int) "invalid request code" Rpc.invalid_request e.Rpc.code
      | _ -> Alcotest.fail "invalid request not answered with id null + error")
  | None -> Alcotest.fail "invalid request got no response");
  (* notifications never get a response, even for unknown methods *)
  let notification =
    Rpc.request_to_line { Rpc.rpc_id = None; rpc_method = "nope"; rpc_params = None }
  in
  Alcotest.(check bool) "notification gets no response" true
    (Serve.Server.handle_line server notification = None);
  (* missing session *)
  let e = call_err server "solve" [ ("session", Json.String "ghost") ] in
  Alcotest.(check int) "unknown session code" Rpc.unknown_session e.Rpc.code;
  (* bad params: wrong type and missing member *)
  let e = call_err server "solve" [ ("session", Json.Int 3) ] in
  Alcotest.(check int) "non-string session is invalid params" Rpc.invalid_params
    e.Rpc.code;
  let e = call_err server "open" [ ("session", Json.String "x") ] in
  Alcotest.(check int) "open without source or path" Rpc.invalid_params e.Rpc.code;
  (* load error: source that does not parse *)
  let e =
    call_err server "open"
      [ ("session", Json.String "x"); ("source", Json.String "trait {") ]
  in
  Alcotest.(check int) "unparseable source is a load error" Rpc.load_error e.Rpc.code;
  (* session_exists: the same name twice *)
  let _ =
    call server "open"
      [ ("session", Json.String "dup"); ("source", Json.String failing_src) ]
  in
  let e =
    call_err server "open"
      [ ("session", Json.String "dup"); ("source", Json.String failing_src) ]
  in
  Alcotest.(check int) "duplicate open code" Rpc.session_exists e.Rpc.code;
  (* not_solved: view verbs before any solve *)
  let e = call_err server "tree" [ ("session", Json.String "dup") ] in
  Alcotest.(check int) "tree before solve" Rpc.not_solved e.Rpc.code;
  let e =
    call_err server "expand" [ ("session", Json.String "dup"); ("row", Json.Int 0) ]
  in
  Alcotest.(check int) "expand before solve" Rpc.not_solved e.Rpc.code

(* An integer literal too large for [int] is a load error with the
   literal's span, and the server keeps serving: the same session name
   then opens and solves. *)
let test_oversized_literal_open () =
  fresh_state ();
  let server = Serve.Server.create () in
  let e =
    call_err server "open"
      [
        ("session", Json.String "big");
        ("source", Json.String "fn f() { 99999999999999999999999; }");
      ]
  in
  Alcotest.(check int) "oversized literal is a load error" Rpc.load_error e.Rpc.code;
  Alcotest.(check string) "message and span"
    "<serve>:1:10: parse error: integer literal out of range" e.Rpc.message;
  let opened =
    call server "open" [ ("session", Json.String "big"); ("source", Json.String failing_src) ]
  in
  Alcotest.(check int) "good open after the bad one" 2 (int_member "goals" opened);
  let solved = call server "solve" [ ("session", Json.String "big") ] in
  Alcotest.(check bool) "solve answers" true
    (contains ~affix:"error[E0277]" (str "output" solved))

(* ------------------------------------------------------------------ *)
(* Corpus-wide equivalence with the one-shot CLI *)

(* Tests run in _build/default/test; the CLI binary is a declared test
   dependency one directory up. *)
let cli = Filename.concat ".." (Filename.concat "bin" "argus_cli.exe")

(* For every bundled corpus program: serve [solve] must byte-match
   `argus check FILE`, serve [tree] must byte-match `argus bottom-up
   FILE`, and serve [explain] (summary and --failures) must byte-match
   `argus explain` over the `check --events-out` journal — the same
   renderers fed by the same journal bytes. *)
let test_corpus_cli_equivalence () =
  fresh_state ();
  List.iter
    (fun (e : Corpus.Harness.entry) ->
      let path = "serve_eq.trait" in
      write_file path e.source;
      let code =
        Sys.command
          (Printf.sprintf
             "%s check --events-out serve_eq.jsonl %s > serve_eq_check.out 2> \
              serve_eq_check.err"
             cli path)
      in
      Alcotest.(check bool)
        (e.id ^ ": check exits 0 or 1")
        true (code = 0 || code = 1);
      let code =
        Sys.command
          (Printf.sprintf "%s bottom-up %s > serve_eq_tree.out 2>&1" cli path)
      in
      Alcotest.(check int) (e.id ^ ": bottom-up exits 0") 0 code;
      let code =
        Sys.command
          (Printf.sprintf "%s explain serve_eq.jsonl > serve_eq_sum.out 2>&1" cli)
      in
      Alcotest.(check int) (e.id ^ ": explain exits 0") 0 code;
      let code =
        Sys.command
          (Printf.sprintf "%s explain --failures serve_eq.jsonl > serve_eq_fail.out 2>&1"
             cli)
      in
      Alcotest.(check int) (e.id ^ ": explain --failures exits 0") 0 code;
      (* the same program through a cold in-process server *)
      Solver.Eval_cache.clear ();
      let server = Serve.Server.create () in
      let _ =
        call server "open" [ ("session", Json.String "eq"); ("path", Json.String path) ]
      in
      let solved = call server "solve" [ ("session", Json.String "eq") ] in
      Alcotest.(check string)
        (e.id ^ ": serve solve == argus check")
        (read_file "serve_eq_check.out") (str "output" solved);
      let treed = call server "tree" [ ("session", Json.String "eq") ] in
      Alcotest.(check string)
        (e.id ^ ": serve tree == argus bottom-up")
        (read_file "serve_eq_tree.out") (str "output" treed);
      let summary = call server "explain" [ ("session", Json.String "eq") ] in
      Alcotest.(check string)
        (e.id ^ ": serve explain == argus explain")
        (read_file "serve_eq_sum.out") (str "output" summary);
      let failures =
        call server "explain"
          [ ("session", Json.String "eq"); ("failures", Json.Bool true) ]
      in
      Alcotest.(check string)
        (e.id ^ ": serve explain failures == argus explain --failures")
        (read_file "serve_eq_fail.out")
        (str "output" failures))
    Corpus.Suite.entries

(* ------------------------------------------------------------------ *)
(* Concurrency determinism *)

(* N clients, each with its own session and program.  Run each client's
   script alone against a fresh cold server, then all of them
   interleaved round-robin through handle_batch on a 4-worker pool:
   every response must be byte-identical either way, and the pool.* and
   serve.* counters must account for the work. *)
let test_concurrent_determinism () =
  fresh_state ();
  Telemetry.enable ();
  Fun.protect ~finally:(fun () -> Telemetry.disable ()) @@ fun () ->
  let clients = 4 in
  let source c =
    Printf.sprintf
      "struct A%d; trait T%d {} trait U%d {} impl T%d for A%d {} goal A%d: T%d; \
       goal A%d: U%d;"
      c c c c c c c c c
  in
  let script c =
    let s = Printf.sprintf "c%d" c in
    [
      line ~id:1 "open" [ ("session", Json.String s); ("source", Json.String (source c)) ];
      line ~id:2 "solve" [ ("session", Json.String s) ];
      line ~id:3 "tree" [ ("session", Json.String s) ];
      line ~id:4 "explain" [ ("session", Json.String s); ("failures", Json.Bool true) ];
    ]
  in
  (* solo reference runs: one fresh cold server per client *)
  let solo =
    List.init clients (fun c ->
        Solver.Eval_cache.clear ();
        let server = Serve.Server.create () in
        List.map
          (fun l ->
            match Serve.Server.handle_line server l with
            | Some r -> r
            | None -> Alcotest.fail "solo request got no response")
          (script c))
  in
  (* interleaved: round-robin across clients, one shared server *)
  Solver.Eval_cache.clear ();
  let server = Serve.Server.create () in
  let scripts = Array.of_list (List.init clients script) in
  let batch =
    List.concat_map
      (fun step ->
        List.init clients (fun c -> (c, List.nth scripts.(c) step)))
      [ 0; 1; 2; 3 ]
  in
  let requests0 = Telemetry.counter_value "serve.requests" in
  let tasks0 = Telemetry.counter_value "pool.tasks" in
  let pool = Pool.create ~jobs:4 in
  let results =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Serve.Server.handle_batch ~pool server batch)
  in
  Alcotest.(check int) "one result per request" (List.length batch)
    (List.length results);
  Alcotest.(check bool) "serve.requests counts the batch" true
    (Telemetry.counter_value "serve.requests" - requests0 >= List.length batch);
  Alcotest.(check bool) "pool.tasks advanced" true
    (Telemetry.counter_value "pool.tasks" > tasks0);
  (* reassemble per-client streams in order and compare byte-for-byte *)
  List.iteri
    (fun c responses ->
      let got =
        List.filter_map
          (fun (client, resp) -> if client = c then resp else None)
          results
      in
      Alcotest.(check (list string))
        (Printf.sprintf "client %d: interleaved == solo" c)
        responses got)
    solo

(* Shutdown mid-flight: a batch that carries a shutdown among live
   requests drains cleanly — every request gets a well-formed response
   (a result or a structured error, including -32003 for requests
   processed after the shutdown wins), and the server stays down. *)
let test_shutdown_drains () =
  fresh_state ();
  let server = Serve.Server.create () in
  let _ =
    call server "open"
      [ ("session", Json.String "d"); ("source", Json.String failing_src) ]
  in
  let batch =
    [
      (0, line ~id:1 "solve" [ ("session", Json.String "d") ]);
      (1, line ~id:2 "shutdown" []);
      (0, line ~id:3 "tree" [ ("session", Json.String "d") ]);
      (2, line ~id:4 "explain" [ ("session", Json.String "d") ]);
    ]
  in
  let pool = Pool.create ~jobs:2 in
  let results =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Serve.Server.handle_batch ~pool server batch)
  in
  Alcotest.(check int) "every request answered" (List.length batch)
    (List.length results);
  List.iter
    (fun (_, resp) ->
      match resp with
      | None -> Alcotest.fail "request dropped during shutdown"
      | Some r -> (
          match Rpc.response_of_line r with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "malformed response during drain: %s" e))
    results;
  Alcotest.(check bool) "server is down after the batch" true
    (Serve.Server.shutting_down server);
  let e = call_err server "solve" [ ("session", Json.String "d") ] in
  Alcotest.(check int) "later requests get -32003" Rpc.shutting_down e.Rpc.code

(* ------------------------------------------------------------------ *)
(* PR 9 remainder: reload of an unchanged file is a stamp-equal no-op *)

let test_reload_unchanged_noop () =
  fresh_state ();
  Telemetry.enable ();
  Fun.protect ~finally:(fun () -> Telemetry.disable ()) @@ fun () ->
  let path = "serve_noop.trait" in
  write_file path failing_src;
  let server = Serve.Server.create () in
  let _ =
    call server "open" [ ("session", Json.String "n"); ("path", Json.String path) ]
  in
  let first = call server "solve" [ ("session", Json.String "n") ] in
  (* "save" the file without changing it, then reload by path *)
  write_file path failing_src;
  let cache0 = Solver.Eval_cache.stats () in
  let reloaded =
    call server "reload" [ ("session", Json.String "n"); ("path", Json.String path) ]
  in
  Alcotest.(check bool) "unchanged reload is a no-op" true
    (bool_member "noop" reloaded);
  Alcotest.(check bool) "zero evictions" true (Solver.Eval_cache.stats () = cache0);
  (* the re-solve records a journal, so it never consults the cache:
     no cache.* counter moves, and the bytes equal the first solve's *)
  let cache_counters () =
    List.filter
      (fun (name, _) -> String.starts_with ~prefix:"cache." name)
      (Telemetry.snapshot ()).sn_counters
  in
  let counters0 = cache_counters () in
  let again = call server "solve" [ ("session", Json.String "n") ] in
  Alcotest.(check (list (pair string int)))
    "solve moves no cache.* counter" counters0 (cache_counters ());
  Alcotest.(check string) "re-solve output is byte-identical" (str "output" first)
    (str "output" again)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "rpc",
        [
          Alcotest.test_case "framing round-trip" `Quick test_rpc_roundtrip;
          Alcotest.test_case "decode errors" `Quick test_rpc_decode_errors;
        ] );
      ( "transcripts",
        [
          Alcotest.test_case "every verb, golden fields" `Quick test_golden_transcript;
          Alcotest.test_case "error objects" `Quick test_golden_errors;
          Alcotest.test_case "oversized literal, then a good open" `Quick
            test_oversized_literal_open;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "serve == one-shot CLI, corpus-wide" `Quick
            test_corpus_cli_equivalence;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "interleaved == solo" `Quick test_concurrent_determinism;
          Alcotest.test_case "shutdown drains cleanly" `Quick test_shutdown_drains;
        ] );
      ( "reload",
        [
          Alcotest.test_case "unchanged file is a stamp-equal no-op" `Quick
            test_reload_unchanged_noop;
        ] );
    ]

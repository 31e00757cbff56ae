(** Tests of the benchmark itself: every metric BENCHMARK.json names is
    printed with its unit, a planted wrong expectation shows up as
    failed ops, the same seed generates the same inputs, and a traced
    run's spans account for its ops' wall time.  Runs are cut
    to a few milliseconds of measurement; set-up and the warm-up cycle
    still run in full. *)

open Perfbench
module Json = Argus_json.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let benchmark = lazy (Json.of_string (read_file "../../BENCHMARK.json"))

(* (name, unit) of every metric in one section of BENCHMARK.json *)
let declared section =
  match Json.member section (Lazy.force benchmark) with
  | Some (Json.List ms) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.String n), Some (Json.String u) -> (n, u)
          | _ -> Alcotest.fail "metric without name or unit")
        ms
  | _ -> Alcotest.fail ("no section " ^ section)

let run ?(inject_fault = false) ~trace w =
  Runner.run ~inject_fault ~seed:7 ~seconds:0.01 ~trace w

(* The result line parses, carries exactly the declared metrics, each
   with its declared unit, and the error-free run reports correct. *)
let check_printed ~trace w =
  let r = run ~trace w in
  let line = Runner.to_json r in
  let j = Json.of_string line in
  let printed =
    match Json.member "metrics" j with
    | Some (Json.Obj ms) ->
        List.map
          (fun (n, v) ->
            match Json.member "unit" v with
            | Some (Json.String u) -> (n, u)
            | _ -> Alcotest.fail (n ^ " printed without a unit"))
          ms
    | _ -> Alcotest.fail "no metrics object"
  in
  let expected = declared (if trace then "per_layer" else "end_to_end") in
  Alcotest.(check (list (pair string string)))
    (Workload.name w ^ " metrics")
    (List.sort compare expected) (List.sort compare printed);
  Alcotest.(check bool) "correct" true (Json.member "correct" j = Some (Json.Bool true));
  Alcotest.(check int) "no failed ops" 0 r.r_failed;
  List.iter
    (fun (n, _) ->
      let t = Runner.to_table r in
      let contains s sub =
        let n = String.length s and k = String.length sub in
        let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (n ^ " in table") true (contains t n))
    (expected @ [ ("error_rate", "ratio") ]);
  r

let test_metrics w () =
  ignore (check_printed ~trace:false w);
  let r = check_printed ~trace:true w in
  Alcotest.(check bool) "spans account for the ops' wall time" true (Runner.spans_account r)

(* The accounting check itself, on hand-made spans: a span outside its
   parent, and an op whose spans leave most of its wall time to the
   benchmark's glue, each fail it. *)
let test_accounting () =
  let span id ~parent name start_ns stop_ns =
    { Spans.id; op = 0; name; parent; start_ns; stop_ns; domain = 0 }
  in
  let op kids = Spans.breakdown (span 0 ~parent:(-1) "op" 0 100 :: kids) in
  let covered = op [ span 1 ~parent:0 "solver.solve" 2 99 ] in
  Alcotest.(check (float 1e-9)) "glue share" 0.03 (Runner.unattributed covered);
  Alcotest.(check int) "nested" 0 (List.hd covered).ob_nesting_errors;
  let sparse = op [ span 1 ~parent:0 "solver.solve" 10 30 ] in
  Alcotest.(check bool) "mostly glue" true (Runner.unattributed sparse > Runner.max_unattributed);
  let outside = op [ span 1 ~parent:0 "solver.solve" 50 120 ] in
  Alcotest.(check int) "child outside parent" 1 (List.hd outside).ob_nesting_errors

let test_fault w () =
  let r = run ~inject_fault:true ~trace:false w in
  Alcotest.(check bool) "error_rate above 0" true (r.r_error_rate > 0.0);
  Alcotest.(check bool) "not correct" true
    (Json.member "correct" (Json.of_string (Runner.to_json r)) = Some (Json.Bool false))

let test_digest (Workload.W w) () =
  let d seed = w.digest (w.generate ~seed) in
  Alcotest.(check string) "same seed, same inputs" (d 3) (d 3);
  Alcotest.(check bool) "another seed, other inputs" true (d 3 <> d 4)

let () =
  let per f = List.map (fun w -> Alcotest.test_case (Workload.name w) `Quick (f w)) Workloads.all in
  Alcotest.run "perfbench"
    [
      ("metrics printed with units", per test_metrics);
      ("planted fault raises error_rate", per test_fault);
      ("input digests", per test_digest);
      ("trace accounting", [ Alcotest.test_case "spans" `Quick test_accounting ]);
    ]

(* check-corpus: one `argus check` per corpus program, always from
   source text, as a CLI run pays it.  The front end and the fixed
   per-check costs dominate; every program stamp is fresh, so the
   evaluation cache only inserts, and with at most a few dozen impls
   per program the fast-reject index plays no part.

   Between ops (untimed) the evaluation cache and the fast-reject
   registry are emptied, as each CLI run starts with them empty.  Left
   to fill, they made ops 20% slower by the end of a 20 s run than at
   its start, so a faster program, getting through more ops, would
   have read slower.  The interner stays: the expected root-cause
   predicates were interned at set-up and must stay canonical. *)

open Workload
module H = Corpus.Harness

let corpus () =
  Corpus.Suite.entries @ Corpus.Suite.extended @ Corpus.Suite.extras
  @ Corpus.Suite.extended_ok

type inputs = { seed : int; entries : H.entry array }

(* The ground truth: an empty [root_cause] means every goal proves;
   otherwise some goal fails and the root cause is a failing leaf of the
   first failing goal's tree. *)
type expect = All_proved | Fails_with of Trait_lang.Predicate.t

let generate ~seed = { seed; entries = Array.of_list (corpus ()) }

(* Each cycle checks every program once, in the cycle's own order. *)
let order inp round = permutation ~seed:inp.seed ~round (Array.length inp.entries)

let digest inp =
  digest_strings
    (List.concat_map
       (fun round ->
         Array.to_list (Array.map (fun i -> inp.entries.(i).H.source) (order inp round)))
       [ 0; 1; 2 ])

let reference ~inject_fault inp =
  let refs =
    Array.map
      (fun (e : H.entry) ->
        if e.root_cause = "" then All_proved else Fails_with (H.root_cause_pred e))
      inp.entries
  in
  (* a planted fault: expect a failing program to prove *)
  (if inject_fault then
     match
       List.find_opt
         (fun i -> match refs.(i) with Fails_with _ -> true | All_proved -> false)
         (List.init (Array.length refs) Fun.id)
     with
     | Some i -> refs.(i) <- All_proved
     | None -> ());
  refs

let file_of (e : H.entry) = e.id ^ ".rs"

(* One check, exactly as the CLI's `check` runs it, followed by the
   Argus views of every failing goal. *)
let check_one (e : H.entry) =
  (* Resolve.program_of_string, in its two parts *)
  let ast =
    Spans.with_span "trait_lang.parse" (fun () -> Trait_lang.Parser.parse ~file:(file_of e) e.source)
  in
  sample "trait_lang.bytes" (float_of_int (String.length e.source));
  let program = Spans.with_span "trait_lang.resolve" (fun () -> Trait_lang.Resolve.lower ast) in
  let report =
    Spans.with_span "solver.solve" (fun () -> Solver.Obligations.solve_program program)
  in
  ignore
    (Spans.with_span "serve.check_render" (fun () -> Serve.Check_render.run program report));
  List.map
    (fun r ->
      let tree = Spans.with_span "core.extract" (fun () -> Argus.Extract.of_report r) in
      let ranking = Spans.with_span "core.rank" (fun () -> Argus.Inertia.rank tree) in
      sample "core.dnf_conjuncts" (float_of_int (List.length ranking.Argus.Inertia.sets));
      ignore (Spans.with_span "core.render" (fun () -> Argus.Render.tree_to_string tree));
      tree)
    (Solver.Obligations.errors report)

(* While tracing, time the three parts of [Check_render.run] one by one
   on a fresh parse of the same source (fresh stamp, so nothing the op
   cached is reused): coherence, rustc-style diagnostics, type check. *)
let probe_check_render (e : H.entry) =
  let program = Trait_lang.Resolve.program_of_string ~file:(file_of e) e.source in
  let (), coh =
    timed (fun () ->
        ignore (Solver.Coherence.check program);
        ignore (Solver.Coherence.orphan_violations program);
        ignore (Solver.Coherence.check_impl_wf program))
  in
  sample "solver.coherence_ns" (float_of_int coh);
  let report = Solver.Obligations.solve_program program in
  List.iter
    (fun (r : Solver.Obligations.goal_report) ->
      let tree = Argus.Extract.of_report r in
      let goal = { r.goal with Trait_lang.Program.goal_pred = r.final.pred } in
      let _, ns =
        timed (fun () ->
            Rustc_diag.Diagnostic.to_string (Rustc_diag.Diagnostic.of_tree program goal tree))
      in
      sample "rustc_diag.diag_ns" (float_of_int ns))
    (Solver.Obligations.errors report);
  let _, tc = timed (fun () -> Typeck.Infer.check_program program) in
  sample "typeck.check_ns" (float_of_int tc)

let verdict_ok expect trees =
  match (expect, trees) with
  | All_proved, [] -> true
  | All_proved, _ :: _ | Fails_with _, [] -> false
  | Fails_with rc, tree :: _ ->
      Argus.Proof_tree.failed_leaves tree
      |> List.exists (fun (n : Argus.Proof_tree.node) ->
             match n.kind with
             | Argus.Proof_tree.Goal g -> Trait_lang.Predicate.equal g.pred rc
             | _ -> false)

let start inp refs =
  (* the first check of each program in a fresh process *)
  Array.iter (fun e -> ignore (check_one e)) inp.entries;
  let n = Array.length inp.entries in
  let next = ref 0 and cur = ref [||] in
  let step () =
    if !next mod n = 0 then cur := order inp (!next / n);
    let i = !cur.(!next mod n) in
    incr next;
    let e = inp.entries.(i) in
    let trees = check_one e in
    let check () =
      if Spans.enabled () then probe_check_render e;
      Solver.Eval_cache.clear ();
      Solver.Fast_reject.clear ();
      if verdict_ok refs.(i) trees then 0 else 1
    in
    { requests = 1; check }
  in
  { step; cycle_start = (fun () -> !next mod n = 0); teardown = ignore }

let workload =
  W
    {
      name = "check-corpus";
      generate;
      digest;
      reference;
      start;
    }

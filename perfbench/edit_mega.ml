(* edit-mega: a warm incremental session over a generated mega library,
   replaying a seeded edit script.  All solve: cache hits and
   evictions, fingerprint diff and index rebase, with no parsing,
   rendering or journal.  The cache is read-heavy, the opposite of
   check-corpus.

   The script (seeded ops applied with Fuzz.Edit) is walked forward and
   then undone step by step, so every op is a single-declaration edit
   and the versions repeat, which lets each version's expected report
   be computed once, from scratch with the cache off, before timing
   starts.  Every op still hands the
   session a program with a fresh stamp, as a new save of the file
   would: a repeated stamp would let the session reuse the memoized
   fingerprint diff between two versions it has already seen. *)

open Workload

(* The scale curve favours 10k impls, where the fast-reject index pays
   off, but there one op takes 40-300 ms; a p99 needs 1000 ops per run
   (10 beyond it), which bounds the library at about 1000 impls. *)
let impls = 1000
let goals = 64

(* One block of the script: one op of each of Fuzz.Edit's seven kinds,
   the mix Fuzz.Edit.script draws from, with its odds.  The script draws
   each op's kind at random, which at a few dozen steps leaves the share
   of evicting edits — and with it the median op — to the seed; a fixed
   mix per block, with seeded positions and targets, does not.  Impl
   edits dirty the traits they touch and evict every goal that consulted
   them; goal edits and new structs evict nothing. *)
let block : [ `Remove | `Dup | `Drop_where | `Swap | `Remove_goal | `Dup_goal | `Struct ] list =
  [ `Remove; `Dup; `Drop_where; `Swap; `Remove_goal; `Dup_goal; `Struct ]

let blocks = 7

type inputs = {
  source : string;
  versions : Trait_lang.Program.t array;  (** base, then one per script step *)
  ops : string list;
}

(* One seeded op of the given kind against the current version. *)
let op_of rng (p : Trait_lang.Program.t) kind : Fuzz.Edit.op =
  let impls = Trait_lang.Program.impls p in
  (* only where-free impls are duplicated: see Fuzz.Edit on recursive ones *)
  let where_free =
    List.mapi (fun i (d : Trait_lang.Decl.impl) -> (i, d.impl_generics.where_clauses = [])) impls
    |> List.filter_map (fun (i, free) -> if free then Some i else None)
  in
  let n_impls = List.length impls and n_goals = List.length (Trait_lang.Program.goals p) in
  match kind with
  | `Remove -> Remove_impl (Random.State.int rng n_impls)
  | `Dup -> Dup_impl (List.nth where_free (Random.State.int rng (List.length where_free)))
  (* As in Fuzz.Edit.script, from any impl.  Three of the library's
     impls have a where-clause, so this is nearly always an edit that
     changes nothing but the stamp. *)
  | `Drop_where -> Drop_where (Random.State.int rng n_impls)
  | `Swap -> Swap_impls (Random.State.int rng n_impls, Random.State.int rng n_impls)
  | `Remove_goal -> Remove_goal (Random.State.int rng n_goals)
  | `Dup_goal -> Dup_goal (Random.State.int rng n_goals)
  | `Struct -> Add_struct (Random.State.int rng 1000)

let script ~seed base =
  let rng = Random.State.make [| seed; 0x6564 |] in
  let kinds =
    List.concat
      (List.init blocks (fun round ->
           let b = Array.of_list block in
           Array.to_list (Array.map (fun i -> b.(i)) (permutation ~seed ~round (Array.length b)))))
  in
  let _, steps =
    List.fold_left
      (fun (p, acc) kind ->
        let op = op_of rng p kind in
        let p' = Fuzz.Edit.apply p op in
        (p', (op, p') :: acc))
      (base, []) kinds
  in
  List.rev steps

let generate ~seed =
  let source = Fuzz.Gen.render (Fuzz.Gen.generate_mega ~goals ~seed ~impls) in
  let base = Trait_lang.Resolve.program_of_string ~file:"mega.trait" source in
  let script = script ~seed base in
  {
    source;
    versions = Array.of_list (base :: List.map snd script);
    ops = List.map (fun (op, _) -> Fuzz.Edit.describe op) script;
  }

let digest inp = digest_strings (inp.source :: inp.ops)

(* What a report says, without the solver state it retains.  Two
   reports over the same declaration values compare with [compare],
   which stops early on the physically shared parts (interned
   predicates, the declarations themselves). *)
let outcome (report : Solver.Obligations.report) =
  List.map
    (fun (r : Solver.Obligations.goal_report) -> (r.goal, r.status, r.final, r.attempts))
    report.reports

(* Each version solved from scratch with the cache off. *)
let reference ~inject_fault inp =
  Solver.Eval_cache.set_enabled false;
  let refs =
    Array.map
      (fun program ->
        Journal.reset_ids ();
        Solver.Infer_ctx.reset_snapshot_serial ();
        outcome (Solver.Obligations.solve_program program))
      inp.versions
  in
  Solver.Eval_cache.set_enabled true;
  if inject_fault then refs.(1) <- List.tl refs.(1);
  refs

(* The base program's verdicts follow generate_mega's construction:
   goal g is disproved iff g mod 4 = 1. *)
let base_verdicts_ok (report : Solver.Obligations.report) =
  List.length report.reports = goals
  && List.for_all2
       (fun g (r : Solver.Obligations.goal_report) ->
         (r.status = Solver.Obligations.Disproved) = (g mod 4 = 1))
       (List.init goals Fun.id) report.reports

(* The same declarations under a fresh program stamp. *)
let restamp p =
  let open Trait_lang in
  Program.of_decls ~goals:(Program.goals p)
    (List.map (fun d -> Decl.Type d) (Program.types p)
    @ List.map (fun d -> Decl.Trait d) (Program.traits p)
    @ List.map (fun d -> Decl.Fn d) (Program.fns p)
    @ List.map (fun d -> Decl.Impl d) (Program.impls p))

(* forward through the script, then back: 0 1 .. n .. 1 0 1 .. *)
let version_at n k =
  let period = 2 * n in
  let k = k mod period in
  if k <= n then k else period - k

let start inp refs =
  let session = Solver.Session.create () in
  ignore (Solver.Session.load session inp.versions.(0));
  ignore (Solver.Session.resolve session);
  let n = Array.length inp.versions - 1 in
  let next = ref 1 in
  let upcoming = ref (restamp inp.versions.(version_at n 1)) in
  let step () =
    let v = version_at n !next in
    let program = !upcoming in
    incr next;
    let delta =
      Spans.with_span "solver.session.edit" (fun () -> Solver.Session.edit session program)
    in
    let report =
      Spans.with_span "solver.session.resolve" (fun () -> Solver.Session.resolve session)
    in
    sample "session.survived" (float_of_int delta.d_survived);
    sample "session.evicted" (float_of_int delta.d_evicted);
    let check () =
      upcoming := restamp inp.versions.(version_at n !next);
      let ok =
        compare (outcome report) refs.(v) = 0 && (v <> 0 || base_verdicts_ok report)
      in
      if ok then 0 else 1
    in
    { requests = 1; check }
  in
  { step; cycle_start = (fun () -> (!next - 1) mod (2 * n) = 0); teardown = ignore }

let workload =
  W
    {
      name = "edit-mega";
      generate;
      digest;
      reference;
      start;
    }

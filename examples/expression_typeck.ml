(** §4's interleaving, end to end: type checking *generates* the trait
    obligations that the solver then explains.

    Run with: [dune exec examples/expression_typeck.exe]

    The program below writes no [goal] declarations at all — every
    obligation is born inside [fn main]'s body:
    - [collect(reading)] instantiates [collect]'s generics and emits
      [Celsius: Recordable];
    - [.summarize()] probes two candidate traits speculatively;
    - a second call's obligation fails, and the resulting inference tree
      is debugged with the same views as any [goal]. *)

open Trait_lang

let source =
  {|
extern crate sensors {
  trait Recordable {}
  trait Summary { fn summarize(self) -> String; }
  trait DebugSummary { fn summarize(self) -> String; }
  struct Log<T>;
  impl<T> Recordable for Log<T> where T: Recordable {}
  impl<T> Summary for Log<T> where T: Recordable {}
}

struct Celsius;
struct Candela;
impl Recordable for Celsius {}
// note: no Recordable for Candela

fn collect<T>(x: T) -> Log<T> where T: Recordable { x; }

fn main() {
  let reading = Celsius;
  let log = collect(reading);       // emits Celsius: Recordable  (proves)
  let text = log.summarize();       // probes Summary vs DebugSummary
  let weird = collect(Candela);     // emits Candela: Recordable  (fails!)
}
|}

let () =
  let program = Resolve.program_of_string ~file:"sensors.rs" source in
  let report = Typeck.Infer.check_program program in
  let fr =
    List.find
      (fun (fr : Typeck.Infer.fn_report) -> Path.name fr.fr_fn.fn_path = "main")
      report.fr_fns
  in

  print_endline "--- inferred locals ---";
  List.iter
    (fun (n, t) -> Printf.printf "  %-8s : %s\n" n (Pretty.ty ~cfg:Pretty.expanded t))
    fr.fr_locals;
  print_newline ();

  print_endline "--- obligations generated by the body (§4 interleaving) ---";
  List.iter
    (fun (ob : Solver.Obligations.goal_report) ->
      Printf.printf "  %-30s %-10s from %s\n"
        (Pretty.predicate ob.final.pred)
        (match ob.status with
        | Solver.Obligations.Proved -> "proved"
        | Solver.Obligations.Disproved -> "FAILED"
        | Solver.Obligations.Ambiguous -> "ambiguous")
        ob.goal.goal_origin)
    fr.fr_obligations;
  print_newline ();

  print_endline "--- the method probe (speculative predicates) ---";
  List.iter
    (fun (p : Typeck.Infer.probe) ->
      Printf.printf "  .%s() on %s: %d candidate trait(s), committed %s\n" p.p_method
        (Pretty.ty ~cfg:Pretty.expanded p.p_recv_ty)
        (List.length p.p_nodes)
        (match p.p_chosen with Some i -> Printf.sprintf "#%d" i | None -> "none");
      List.iter
        (fun (n : Solver.Trace.goal_node) ->
          Printf.printf "    %s %s%s\n"
            (match n.result with Solver.Res.Yes -> "✓" | Solver.Res.No -> "✗" | _ -> "?")
            (Pretty.predicate n.pred)
            (if Solver.Trace.has_flag Journal.Speculative n then " [speculative]" else ""))
        p.p_nodes)
    fr.fr_probes;
  print_newline ();

  print_endline "--- debugging the failed obligation with the Argus views ---";
  let failed =
    List.find
      (fun (ob : Solver.Obligations.goal_report) ->
        ob.status <> Solver.Obligations.Proved)
      fr.fr_obligations
  in
  let tree = Argus.Extract.of_report failed in
  print_endline (Argus.Render.tree_to_string ~direction:Argus.View_state.Bottom_up tree);
  print_newline ();
  let goal = { failed.goal with Program.goal_pred = failed.final.pred } in
  print_string
    (Rustc_diag.Diagnostic.to_string (Rustc_diag.Diagnostic.of_tree program goal tree))

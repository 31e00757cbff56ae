(** §4's speculative-predicate scenario: resolving [my_value.to_string()].

    Run with: [dune exec examples/method_probing.exe]

    "The type inference engine may ask the trait solver to evaluate
    [Vec<i32>: ToString], but this predicate is *speculative*.  If the
    predicate fails, the inference engine may ask the trait solver to
    evaluate [Vec<i32>: CustomToString].  The issue is that all
    predicates, regardless of whether they are soft or hard constraints,
    look identical to external compiler plugins."

    We drive the probe through {!Solver.Solve.solve_probe} and show what a
    naive plugin would display (every attempt, including the misleading
    failed one) versus what Argus's extraction heuristic keeps. *)

open Trait_lang

let source =
  {|
extern crate std {
  trait ToString {}
  trait CustomToString {}
  struct Vec<T>;
  impl ToString for i32 {}
  impl ToString for String {}
}
// the user's crate implements only the custom trait for Vec<i32>
impl CustomToString for Vec<i32> {}
|}

let () =
  let program = Resolve.program_of_string ~file:"probing.rs" source in
  let st = Solver.Solve.create program in

  let vec_i32 =
    Ty.ctor (Path.external_ "std" [ "Vec" ]) [ Ty.Int ]
  in
  let bound name crate =
    Predicate.trait_ vec_i32 (Ty.trait_ref (Path.v ~crate [ name ]))
  in
  (* method resolution probes the candidate traits in order *)
  let alternatives =
    [ bound "ToString" (Path.External "std"); bound "CustomToString" (Path.External "std") ]
  in
  let nodes, chosen =
    Solver.Solve.solve_probe st ~origin:"the call my_value.to_string()" alternatives
  in

  Printf.printf "probed %d alternatives; committed #%s\n\n" (List.length nodes)
    (match chosen with Some i -> string_of_int i | None -> "none");

  print_endline "--- what a naive plugin sees (every probed predicate) ---";
  List.iter
    (fun (n : Solver.Trace.goal_node) ->
      Printf.printf "  %s %s%s\n"
        (match n.result with Solver.Res.Yes -> "✓" | Solver.Res.No -> "✗" | _ -> "?")
        (Pretty.predicate n.pred)
        (if Solver.Trace.has_flag Journal.Speculative n then "   [speculative]" else ""))
    nodes;
  print_newline ();

  print_endline "--- what Argus shows after the §4 pruning heuristic ---";
  List.iter
    (fun tree -> print_endline (Argus.Render.tree_to_string ~direction:Argus.View_state.Top_down tree))
    (Argus.Extract.of_probe nodes);
  print_newline ();

  (* the same probe with no successful alternative: everything stays,
     because each failure may be the real error *)
  print_endline "--- probing a receiver with no matching trait at all ---";
  let unit_recv = Ty.Unit in
  let alt2 =
    [
      Predicate.trait_ unit_recv (Ty.trait_ref (Path.external_ "std" [ "ToString" ]));
      Predicate.trait_ unit_recv (Ty.trait_ref (Path.external_ "std" [ "CustomToString" ]));
    ]
  in
  let nodes2, chosen2 = Solver.Solve.solve_probe st alt2 in
  Printf.printf "committed: %s; trees shown: %d (all kept — no success to prune against)\n"
    (match chosen2 with Some i -> string_of_int i | None -> "none")
    (List.length (Argus.Extract.of_probe nodes2))

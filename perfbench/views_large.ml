(* views-large: the Fig. 12b trees, opened and explored as a user does
   in the Argus view.  lib/core is the paper's own layer, yet the corpus
   trees behind the other workloads have at most a few dozen nodes;
   here every op is view work on trees of up to 36,794 goals.

   A session opens one tree (failure formula, DNF, inertia ranking,
   first render) and then applies seeded expand/hover interactions,
   re-rendering after each. *)

open Workload

(* The Fig. 12b sizes.  Every seed opens each of them once per cycle,
   in its own order and with its own interactions: DNF and ranking
   cost grow steeply and unevenly with size, so a seed-dependent size
   mix would make one seed's run incomparable with another's. *)
let sizes = [| 500; 1000; 2554; 5000; 10000; 20000; 36794 |]
let interactions = 20
let assignments = 16

type inputs = { seed : int; trees : Argus.Proof_tree.t array }

let generate ~seed = { seed; trees = Array.map Argus.Synthetic.of_size sizes }

(* Each cycle opens every tree once, in the cycle's own order. *)
let order inp round = permutation ~seed:inp.seed ~round (Array.length inp.trees)

let digest inp =
  digest_strings
    (List.concat_map
       (fun round ->
         Array.to_list
           (Array.map
              (fun i ->
                Printf.sprintf "%d:%d:%d" sizes.(i)
                  (Argus.Proof_tree.size inp.trees.(i))
                  (Argus.Proof_tree.goal_count inp.trees.(i)))
              (order inp round)))
       [ 0; 1; 2 ])

(* The reference is the formula itself: on seeded assignments the DNF
   must evaluate as the formula does.  A planted fault expects the
   opposite on one assignment of the first tree opened. *)
let reference ~inject_fault inp = if inject_fault then Some (order inp 0).(0) else None

type session = {
  mutable vs : Argus.View_state.t;
  mutable lines : Argus.Render.line list;
  mutable left : int;
}

let start inp fault =
  let rng = Random.State.make [| inp.seed; 0x7673 |] in
  let n = Array.length inp.trees in
  let next = ref 0 and cur = ref [||] in
  let current = ref None in
  let open_tree i =
    let tree = inp.trees.(i) in
    let formula, dnf =
      Spans.with_span "core.rank" (fun () ->
          let formula, _ = Argus.Formula.of_tree tree in
          let dnf = Argus.Dnf.of_formula formula in
          ignore (Argus.Inertia.rank tree);
          (formula, dnf))
    in
    sample "core.dnf_conjuncts" (float_of_int (Argus.Dnf.num_conjuncts dnf));
    let vs = Argus.View_state.create tree in
    let lines = Spans.with_span "core.render" (fun () -> Argus.Render.view vs) in
    current := Some { vs; lines; left = interactions };
    let check () =
      let vars = Argus.Formula.vars formula in
      let nv = List.fold_left max 0 vars + 1 in
      let arng = Random.State.make [| inp.seed; i |] in
      let wrong = ref 0 in
      for k = 1 to assignments do
        let a = Array.init nv (fun _ -> Random.State.bool arng) in
        let v = Array.get a in
        let agree = Argus.Dnf.eval v dnf = Argus.Formula.eval v formula in
        let expect = not (fault = Some i && k = 1) in
        if agree <> expect then incr wrong
      done;
      if !wrong = 0 && lines <> [] then 0 else 1
    in
    check
  in
  let interact s =
    let line = List.nth s.lines (Random.State.int rng (List.length s.lines)) in
    let hover = Random.State.int rng 10 < 3 in
    s.vs <-
      Spans.with_span "core.view_step" (fun () ->
          if line.node = Argus.Render.others_row then Argus.View_state.toggle_others s.vs
          else if hover then Argus.View_state.hover s.vs line.node
          else Argus.View_state.toggle_expand s.vs line.node);
    s.lines <- Spans.with_span "core.render" (fun () -> Argus.Render.view s.vs);
    s.left <- s.left - 1;
    if s.left = 0 then current := None;
    let lines = s.lines in
    fun () -> if lines = [] then 1 else 0
  in
  let step () =
    let check =
      match !current with
      | Some s -> interact s
      | None ->
          if !next mod n = 0 then cur := order inp (!next / n);
          let i = !cur.(!next mod n) in
          incr next;
          open_tree i
    in
    { requests = 1; check }
  in
  {
    step;
    cycle_start = (fun () -> !current = None && !next mod n = 0);
    teardown = ignore;
  }

let workload =
  W
    {
      name = "views-large";
      generate;
      digest;
      reference;
      start;
    }

(** Synthetic inference trees for performance evaluation.

    Fig. 12b measures DNF-normalization time on trees between 1 and 36,794
    goal nodes.  Our corpus programs produce trees of realistic *shape*
    but modest size, so the bench also measures generated trees that
    follow the structure observed in real inference trees: a sparse
    failing skeleton (one or two failing candidates per goal, shallow AND
    branching) inside a large, mostly-successful body.  This sparsity is
    what keeps the exponential DNF construction fast in practice — the
    paper's median is 0.1 ms despite the worst case.

    The layout is deterministic given the configuration. *)

open Trait_lang

type config = {
  target_goals : int;  (** approximate number of goal nodes *)
  failure_depth : int;  (** depth of the failing skeleton *)
  or_every : int;  (** introduce an extra failing branch every n levels *)
}

(* The failing skeleton grows with the tree: bigger inference trees come
   from bigger search problems, which also have more failing alternatives.
   One failing level per ~120 goal nodes gives the largest paper-scale
   tree (36,794 nodes) a ~300-level skeleton with ~40 OR alternatives —
   the regime where DNF minimization cost reaches the paper's observed
   maximum of a few milliseconds. *)
let config_of_size n =
  { target_goals = max 1 n; failure_depth = max 2 (min 300 (n / 120 + 2)); or_every = 8 }

(* Distinct synthetic predicates so DNF variables are distinct. *)
let pred_of_int i =
  Predicate.Trait
    {
      self_ty = Ty.ctor (Path.local [ "S" ^ string_of_int i ]) [];
      trait_ref = Ty.trait_ref (Path.external_ "lib" [ "T" ^ string_of_int (i mod 97) ]);
    }

let impl_of_int i : Decl.impl =
  {
    impl_id = i;
    impl_generics = Decl.no_generics;
    impl_trait = Ty.trait_ref (Path.external_ "lib" [ "T" ^ string_of_int (i mod 97) ]);
    impl_self = Ty.ctor (Path.local [ "S" ^ string_of_int i ]) [];
    impl_assocs = [];
    impl_span = Span.dummy;
    impl_crate = Path.External "lib";
  }

let generate (cfg : config) : Proof_tree.t =
  let b = Proof_tree.builder () in
  let counter = ref 0 in
  let next () =
    incr counter;
    !counter
  in
  let goal_info ~depth result : Proof_tree.goal_info =
    {
      pred = pred_of_int (next ());
      result;
      provenance = Journal.Root { origin = "synthetic"; span = Span.dummy };
      is_overflow = false;
      is_stateful = false;
      is_user_visible = true;
      depth;
      trace_id = -1;
    }
  in
  let yes_cand parent children_of =
    Proof_tree.add_node b ~parent:(Some parent)
      (Proof_tree.Cand
         {
           source = Solver.Trace.Cand_impl (impl_of_int (next ()));
           cand_result = Solver.Res.Yes;
           failure = None;
           cand_trace_id = -1;
         })
      children_of
  in
  let no_cand ?failure parent children_of =
    Proof_tree.add_node b ~parent:(Some parent)
      (Proof_tree.Cand
         {
           source = Solver.Trace.Cand_impl (impl_of_int (next ()));
           cand_result = Solver.Res.No;
           failure;
           cand_trace_id = -1;
         })
      children_of
  in
  let rejected parent =
    no_cand parent
      ~failure:
        (Journal.Head_mismatch
           (Ty.ctor (Path.local [ "X" ]) [], Ty.ctor (Path.local [ "Y" ]) []))
      (fun _ -> [])
  in
  (* a linear chain of [len] successful goals *)
  let rec success_chain parent ~depth len =
    if len <= 0 then []
    else
      [
        Proof_tree.add_node b ~parent:(Some parent)
          (Proof_tree.Goal (goal_info ~depth Solver.Res.Yes))
          (fun id ->
            if len = 1 then []
            else [ yes_cand id (fun cid -> success_chain cid ~depth:(depth + 1) (len - 1)) ]);
      ]
  in
  (* how much successful padding hangs off each skeleton level *)
  let skeleton_goals = (2 * cfg.failure_depth) + 2 in
  let pad_per_level =
    max 0 ((cfg.target_goals - skeleton_goals) / max 1 cfg.failure_depth)
  in
  let rec failing parent ~depth =
    Proof_tree.add_node b ~parent
      (Proof_tree.Goal (goal_info ~depth Solver.Res.No))
      (fun id ->
        if depth >= cfg.failure_depth then [ rejected id ]
        else begin
          let fixable =
            no_cand id (fun cid ->
                failing (Some cid) ~depth:(depth + 1)
                :: success_chain cid ~depth:(depth + 1) pad_per_level)
          in
          let extra_branch =
            if cfg.or_every > 0 && depth mod cfg.or_every = 0 then
              [
                no_cand id (fun cid ->
                    [
                      Proof_tree.add_node b ~parent:(Some cid)
                        (Proof_tree.Goal (goal_info ~depth:(depth + 1) Solver.Res.No))
                        (fun gid -> [ rejected gid ]);
                    ]);
              ]
            else []
          in
          (fixable :: extra_branch) @ [ rejected id ]
        end)
  in
  let root = failing None ~depth:0 in
  Proof_tree.build b ~root

(** Generate a tree with roughly [n] goal nodes. *)
let of_size n : Proof_tree.t = generate (config_of_size n)

let fig12b_sizes = [ 10; 100; 500; 1000; 2554; 5000; 10000; 20000; 36794 ]

(** Random L_TRAIT program generation (see the interface for the IR).

    Well-formedness invariants maintained by construction:

    - every struct/trait/param reference is declared, with matching arity;
    - impl where-clauses put {e bare type parameters} on the left of
      bounds, never parameter-containing applications.  Growth of goal
      terms during search (the ingredient of exponential blowup when
      combined with candidate branching) is therefore confined to the
      overflow gadget, which owns exactly one impl — its regress is a
      single chain the depth limit cuts off, like the corpus program
      [ast-overflow];
    - inference holes ([_]) appear only in goals.

    Failure-mode gadgets use a private [Fz]-prefixed namespace so random
    impls never add a second candidate to a gadget trait. *)

module Rng = Stats.Rng

type ty =
  | Prim of string
  | Name of string * ty list
  | Tup of ty list
  | Ref of ty
  | Fn_ptr of ty list * ty option
  | Dyn of string
  | Hole
  | Proj of ty * bound * string

and bound = { b_trait : string; b_args : ty list; b_bindings : (string * ty) list }

type pred =
  | P_trait of ty * bound
  | P_proj_eq of ty * bound * string * ty

type assoc_decl = { a_name : string; a_bounds : bound list; a_default : ty option }

type decl =
  | Struct of { s_name : string; s_arity : int }
  | Trait of {
      t_name : string;
      t_arity : int;
      t_supers : bound list;
      t_assocs : assoc_decl list;
    }
  | Impl of {
      i_params : string list;
      i_trait : bound;
      i_self : ty;
      i_where : pred list;
      i_bindings : (string * ty) list;
    }
  | Goal of pred

type spec = decl list

let default_size = 2

(* ------------------------------------------------------------------ *)
(* Rendering *)

let rec render_ty = function
  | Prim s -> s
  | Name (n, []) -> n
  | Name (n, args) -> n ^ "<" ^ String.concat ", " (List.map render_ty args) ^ ">"
  | Tup [ one ] -> "(" ^ render_ty one ^ ",)"
  | Tup ts -> "(" ^ String.concat ", " (List.map render_ty ts) ^ ")"
  | Ref t -> "&" ^ render_ty t
  | Fn_ptr (args, ret) ->
      "fn("
      ^ String.concat ", " (List.map render_ty args)
      ^ ")"
      ^ (match ret with None -> "" | Some r -> " -> " ^ render_ty r)
  | Dyn n -> "dyn " ^ n
  | Hole -> "_"
  | Proj (self, b, assoc) -> "<" ^ render_ty self ^ " as " ^ render_bound b ^ ">::" ^ assoc

and render_bound b =
  let args =
    List.map render_ty b.b_args
    @ List.map (fun (n, t) -> n ^ " = " ^ render_ty t) b.b_bindings
  in
  match args with [] -> b.b_trait | _ -> b.b_trait ^ "<" ^ String.concat ", " args ^ ">"

let render_pred = function
  | P_trait (t, b) -> render_ty t ^ ": " ^ render_bound b
  | P_proj_eq (t, b, assoc, rhs) ->
      "<" ^ render_ty t ^ " as " ^ render_bound b ^ ">::" ^ assoc ^ " == " ^ render_ty rhs

let render_where buf = function
  | [] -> ()
  | preds ->
      Buffer.add_string buf " where ";
      Buffer.add_string buf (String.concat ", " (List.map render_pred preds))

let render_decl buf = function
  | Struct { s_name; s_arity } ->
      Buffer.add_string buf "struct ";
      Buffer.add_string buf s_name;
      if s_arity > 0 then begin
        let ps = List.init s_arity (fun i -> Printf.sprintf "P%d" i) in
        Buffer.add_string buf ("<" ^ String.concat ", " ps ^ ">")
      end;
      Buffer.add_string buf ";\n"
  | Trait { t_name; t_arity; t_supers; t_assocs } ->
      Buffer.add_string buf "trait ";
      Buffer.add_string buf t_name;
      if t_arity > 0 then begin
        let ps = List.init t_arity (fun i -> Printf.sprintf "X%d" i) in
        Buffer.add_string buf ("<" ^ String.concat ", " ps ^ ">")
      end;
      (match t_supers with
      | [] -> ()
      | ss ->
          Buffer.add_string buf ": ";
          Buffer.add_string buf (String.concat " + " (List.map render_bound ss)));
      Buffer.add_string buf " {";
      List.iter
        (fun a ->
          Buffer.add_string buf (" type " ^ a.a_name);
          (match a.a_bounds with
          | [] -> ()
          | bs ->
              Buffer.add_string buf ": ";
              Buffer.add_string buf (String.concat " + " (List.map render_bound bs)));
          (match a.a_default with
          | None -> ()
          | Some d -> Buffer.add_string buf (" = " ^ render_ty d));
          Buffer.add_string buf ";")
        t_assocs;
      Buffer.add_string buf " }\n"
  | Impl { i_params; i_trait; i_self; i_where; i_bindings } ->
      Buffer.add_string buf "impl";
      if i_params <> [] then Buffer.add_string buf ("<" ^ String.concat ", " i_params ^ ">");
      Buffer.add_char buf ' ';
      Buffer.add_string buf (render_bound i_trait);
      Buffer.add_string buf " for ";
      Buffer.add_string buf (render_ty i_self);
      render_where buf i_where;
      Buffer.add_string buf " {";
      List.iter
        (fun (n, t) -> Buffer.add_string buf (" type " ^ n ^ " = " ^ render_ty t ^ ";"))
        i_bindings;
      Buffer.add_string buf " }\n"
  | Goal p ->
      Buffer.add_string buf ("goal " ^ render_pred p ^ ";\n")

let render spec =
  let buf = Buffer.create 1024 in
  List.iter (render_decl buf) spec;
  Buffer.contents buf

let decl_count = List.length

(* ------------------------------------------------------------------ *)
(* Generation *)

type struct_info = { si_name : string; si_arity : int }

type trait_info = { ti_name : string; ti_arity : int; ti_assocs : string list }

type gctx = {
  rng : Rng.t;
  mutable structs : struct_info list;
  mutable traits : trait_info list;
}

let prims = [| "i32"; "usize"; "String"; "bool"; "f64"; "()" |]

(* Identifiers that share a prefix with (or embed) keywords: the lexer's
   maximal munch must keep them whole.  Drawn occasionally as struct
   names so the differential harness continuously exercises
   keyword-adjacent lexing. *)
let keywordish =
  [|
    "Selfless"; "implement"; "forked"; "dynamo"; "modal"; "goalpost"; "traitor";
    "whereabouts"; "crateful"; "externality"; "asteroid"; "muted"; "typewriter";
    "fnord"; "structural"; "newtyped"; "implike"; "fromage";
  |]

let pick rng arr = arr.(Rng.int rng (Array.length arr))
let pick_list rng l = List.nth l (Rng.int rng (List.length l))

(* A random type over declared structs and primitives; [params] are the
   in-scope type parameters, [holes] permits [_] leaves (goals only). *)
let rec gen_ty ctx ~params ~holes depth =
  let rng = ctx.rng in
  let leaf () =
    if holes && Rng.bernoulli rng 0.2 then Hole
    else if params <> [] && Rng.bernoulli rng 0.45 then Name (pick_list rng params, [])
    else if Rng.bernoulli rng 0.3 then Prim (pick rng prims)
    else
      match List.filter (fun s -> s.si_arity = 0) ctx.structs with
      | [] -> Prim (pick rng prims)
      | zs -> Name ((pick_list rng zs).si_name, [])
  in
  if depth <= 0 then leaf ()
  else
    match Rng.int rng 10 with
    | 0 | 1 | 2 -> leaf ()
    | 3 | 4 | 5 | 6 ->
        let s = pick_list rng ctx.structs in
        Name
          ( s.si_name,
            List.init s.si_arity (fun _ -> gen_ty ctx ~params ~holes (depth - 1)) )
    | 7 ->
        let n = 1 + Rng.int rng 2 in
        Tup (List.init n (fun _ -> gen_ty ctx ~params ~holes (depth - 1)))
    | 8 -> Ref (gen_ty ctx ~params ~holes (depth - 1))
    | _ ->
        if Rng.bernoulli rng 0.5 then
          Fn_ptr
            ( [ gen_ty ctx ~params ~holes (depth - 1) ],
              if Rng.bool rng then Some (gen_ty ctx ~params ~holes (depth - 1)) else None )
        else
          (* dyn of an arity-0 trait, when one exists *)
          match List.filter (fun t -> t.ti_arity = 0) ctx.traits with
          | [] -> leaf ()
          | ts -> Dyn ((pick_list rng ts).ti_name)

(* A bound on [trait_], with argument types over [params] and optional
   [Assoc = τ] binding sugar (which the resolver desugars into a
   separate projection predicate). *)
let gen_bound ctx ~params ~holes (t : trait_info) =
  let args = List.init t.ti_arity (fun _ -> gen_ty ctx ~params ~holes 1) in
  let bindings =
    match t.ti_assocs with
    | a :: _ when Rng.bernoulli ctx.rng 0.3 ->
        [ (a, gen_ty ctx ~params ~holes 1) ]
    | _ -> []
  in
  { b_trait = t.ti_name; b_args = args; b_bindings = bindings }

(* A where-clause for an impl: the left-hand side is always a bare
   parameter (see the module header for why), the bound an arbitrary
   declared trait. *)
let gen_where_clause ctx ~params =
  let p = Name (pick_list ctx.rng params, []) in
  let t = pick_list ctx.rng ctx.traits in
  match t.ti_assocs with
  | a :: _ when Rng.bernoulli ctx.rng 0.25 ->
      P_proj_eq
        (p, { b_trait = t.ti_name; b_args = List.init t.ti_arity (fun _ -> gen_ty ctx ~params ~holes:false 1); b_bindings = [] },
         a, gen_ty ctx ~params ~holes:false 1)
  | _ -> P_trait (p, gen_bound ctx ~params ~holes:false t)

let gen_impl ctx (t : trait_info) =
  let rng = ctx.rng in
  let n_params = Rng.int rng 3 in
  let params = List.filteri (fun i _ -> i < n_params) [ "A"; "B" ] in
  let i_self = gen_ty ctx ~params ~holes:false 2 in
  let n_where = if params = [] then 0 else Rng.int rng 3 in
  let i_where = List.init n_where (fun _ -> gen_where_clause ctx ~params) in
  let i_bindings =
    List.map (fun a -> (a, gen_ty ctx ~params ~holes:false 1)) t.ti_assocs
  in
  Impl
    {
      i_params = params;
      i_trait = gen_bound ctx ~params ~holes:false { t with ti_assocs = [] };
      i_self;
      i_where;
      i_bindings;
    }

let gen_goal ctx =
  let rng = ctx.rng in
  let with_assoc = List.filter (fun t -> t.ti_assocs <> []) ctx.traits in
  if with_assoc <> [] && Rng.bernoulli rng 0.25 then
    let t = pick_list rng with_assoc in
    Goal
      (P_proj_eq
         ( gen_ty ctx ~params:[] ~holes:true 2,
           { b_trait = t.ti_name;
             b_args = List.init t.ti_arity (fun _ -> gen_ty ctx ~params:[] ~holes:true 1);
             b_bindings = [] },
           List.hd t.ti_assocs,
           gen_ty ctx ~params:[] ~holes:true 1 ))
  else
    let t = pick_list rng ctx.traits in
    let self =
      if Rng.bernoulli rng 0.06 then Hole else gen_ty ctx ~params:[] ~holes:true 2
    in
    Goal (P_trait (self, gen_bound ctx ~params:[] ~holes:true t))

(* ------------------------------------------------------------------ *)
(* Failure-mode gadgets (private Fz* namespace, appended after the
   random soup so random impls never touch gadget traits) *)

(* §2.1: a deep elided requirement chain.  W<W<...<C>>>: L0 holds only
   through k levels of where-clauses; the base impl is present in
   [provable] variants and missing otherwise, failing at depth k. *)
let gadget_chain ctx =
  let rng = ctx.rng in
  let k = 3 + Rng.int rng 6 in
  let provable = Rng.bernoulli rng 0.4 in
  let traits =
    List.init (k + 1) (fun i ->
        Trait { t_name = Printf.sprintf "FzL%d" i; t_arity = 0; t_supers = []; t_assocs = [] })
  in
  let impls =
    List.init k (fun i ->
        Impl
          {
            i_params = [ "T" ];
            i_trait = { b_trait = Printf.sprintf "FzL%d" i; b_args = []; b_bindings = [] };
            i_self = Name ("FzW", [ Name ("T", []) ]);
            i_where =
              [ P_trait
                  ( Name ("T", []),
                    { b_trait = Printf.sprintf "FzL%d" (i + 1); b_args = []; b_bindings = [] } );
              ];
            i_bindings = [];
          })
  in
  let base =
    if provable then
      [ Impl
          {
            i_params = [];
            i_trait = { b_trait = Printf.sprintf "FzL%d" k; b_args = []; b_bindings = [] };
            i_self = Name ("FzC", []);
            i_where = [];
            i_bindings = [];
          } ]
    else []
  in
  let rec nest n = if n = 0 then Name ("FzC", []) else Name ("FzW", [ nest (n - 1) ]) in
  [ Struct { s_name = "FzC"; s_arity = 0 }; Struct { s_name = "FzW"; s_arity = 1 } ]
  @ traits @ impls @ base
  @ [ Goal (P_trait (nest k, { b_trait = "FzL0"; b_args = []; b_bindings = [] })) ]

(* §2.2: an overflow cycle (E0275) — the single blanket impl regresses
   through an ever-growing wrapper, exactly the ast-overflow shape. *)
let gadget_cycle _ctx =
  [
    Struct { s_name = "FzCycS"; s_arity = 0 };
    Struct { s_name = "FzCycW"; s_arity = 1 };
    Trait { t_name = "FzCyc"; t_arity = 0; t_supers = []; t_assocs = [] };
    Impl
      {
        i_params = [ "T" ];
        i_trait = { b_trait = "FzCyc"; b_args = []; b_bindings = [] };
        i_self = Name ("T", []);
        i_where =
          [ P_trait
              ( Name ("FzCycW", [ Name ("T", []) ]),
                { b_trait = "FzCyc"; b_args = []; b_bindings = [] } );
          ];
        i_bindings = [];
      };
    Goal (P_trait (Name ("FzCycS", []), { b_trait = "FzCyc"; b_args = []; b_bindings = [] }));
  ]

(* §2.3: an ambiguity branch point — a goal with an inference hole that
   two impls satisfy, so selection cannot commit. *)
let gadget_ambiguity _ctx =
  let tb name = { b_trait = name; b_args = []; b_bindings = [] } in
  [
    Struct { s_name = "FzAmA"; s_arity = 0 };
    Struct { s_name = "FzAmB"; s_arity = 0 };
    Struct { s_name = "FzAmP"; s_arity = 2 };
    Trait { t_name = "FzAm"; t_arity = 0; t_supers = []; t_assocs = [] };
    Impl
      {
        i_params = [];
        i_trait = tb "FzAm";
        i_self = Name ("FzAmP", [ Name ("FzAmA", []); Name ("FzAmA", []) ]);
        i_where = [];
        i_bindings = [];
      };
    Impl
      {
        i_params = [];
        i_trait = tb "FzAm";
        i_self = Name ("FzAmP", [ Name ("FzAmB", []); Name ("FzAmA", []) ]);
        i_where = [];
        i_bindings = [];
      };
    Goal (P_trait (Name ("FzAmP", [ Hole; Name ("FzAmA", []) ]), tb "FzAm"));
  ]

(* ------------------------------------------------------------------ *)
(* Mega-library generation (the `scale` bench suite) *)

(* A big-crate impl population with the shape fast reject is built
   for, in controlled proportions:

   - ~75% {e head-distinct} impls ([impl MgTk for MgSi]) — every impl
     its own struct, so all but one are rejected by head before any
     unification;
   - ~20% {e overlapping same-head} impls in constant-width families:
     8 impls share one family head ([impl MgTk for MgFf<MgSa>], the
     [SystemParam] shape), and the {e number of families} grows with
     [impls] while each family stays 8 wide — so same-head probing
     stays honest but per-goal work does not grow with crate size;
   - a constant-size {e generic-self chain} ([impl<T> MgBlk for
     MgW<T> where T: MgBlk] over a base case) that deep goals recurse
     through; its head is rigid ([MgW]), so it is never a wildcard;
   - exactly three {e true blanket impls} (parameter-headed, wildcard)
     whose count does not grow with [impls]: two bounded by a trait
     nothing implements (probed and quickly refuted by every [MgT0] /
     [MgT1] goal) and one unconditional on its own trait.

   Goals cycle over a provable distinct-family hit, a decisive miss
   (every same-trait candidate fast-rejects), a provable
   overlapping-family hit, and a depth-8 chain goal, so per-goal cost
   averages over both the index's best and worst realistic cases. *)
let generate_mega ~goals ~seed ~impls : spec =
  let impls = max 16 impls in
  let rng = Rng.create ~seed:(seed lxor 0x5DEECE66) in
  let nt = 4 in
  let n_blanket = 3 and n_chain = 2 and family_width = 8 in
  let n_overlap = impls / 5 in
  let n_distinct = impls - n_overlap - n_blanket - n_chain in
  let n_structs = max 8 n_distinct in
  let n_families = (n_overlap + family_width - 1) / family_width in
  let mgs i = Printf.sprintf "MgS%d" i in
  let mgt k = Printf.sprintf "MgT%d" k in
  let mgf f = Printf.sprintf "MgF%d" f in
  let tb name = { b_trait = name; b_args = []; b_bindings = [] } in
  let structs =
    Struct { s_name = "MgW"; s_arity = 1 }
    :: List.init n_structs (fun i -> Struct { s_name = mgs i; s_arity = 0 })
    @ List.init n_families (fun f -> Struct { s_name = mgf f; s_arity = 1 })
  in
  let traits =
    List.init nt (fun k ->
        Trait { t_name = mgt k; t_arity = 0; t_supers = []; t_assocs = [] })
    @ [
        Trait { t_name = "MgMarker"; t_arity = 0; t_supers = []; t_assocs = [] };
        Trait { t_name = "MgAny"; t_arity = 0; t_supers = []; t_assocs = [] };
        Trait { t_name = "MgBlk"; t_arity = 0; t_supers = []; t_assocs = [] };
      ]
  in
  (* seeded jitter: which trait each impl/family implements varies per
     seed; the structural proportions do not *)
  let distinct_trait = Array.init n_distinct (fun _ -> Rng.int rng nt) in
  let family_trait = Array.init (max 1 n_families) (fun _ -> Rng.int rng nt) in
  let distinct =
    List.init n_distinct (fun i ->
        Impl
          {
            i_params = [];
            i_trait = tb (mgt distinct_trait.(i));
            i_self = Name (mgs i, []);
            i_where = [];
            i_bindings = [];
          })
  in
  (* family f, member j: argument indices are consecutive mod
     [n_structs] ([family_width <= n_structs]), so members of one
     family never collide *)
  let overlap_self i =
    let f = i / family_width and j = i mod family_width in
    Name (mgf f, [ Name (mgs (((f * family_width) + j) mod n_structs), []) ])
  in
  let overlap =
    List.init n_overlap (fun i ->
        Impl
          {
            i_params = [];
            i_trait = tb (mgt family_trait.(i / family_width));
            i_self = overlap_self i;
            i_where = [];
            i_bindings = [];
          })
  in
  let chain =
    [
      Impl
        {
          i_params = [ "T" ];
          i_trait = tb "MgBlk";
          i_self = Name ("MgW", [ Name ("T", []) ]);
          i_where = [ P_trait (Name ("T", []), tb "MgBlk") ];
          i_bindings = [];
        };
      Impl
        { i_params = []; i_trait = tb "MgBlk"; i_self = Name (mgs 0, []); i_where = []; i_bindings = [] };
    ]
  in
  let blankets =
    [
      Impl
        {
          i_params = [ "T" ];
          i_trait = tb (mgt 0);
          i_self = Name ("T", []);
          i_where = [ P_trait (Name ("T", []), tb "MgMarker") ];
          i_bindings = [];
        };
      Impl
        {
          i_params = [ "T" ];
          i_trait = tb (mgt 1);
          i_self = Name ("T", []);
          i_where = [ P_trait (Name ("T", []), tb "MgMarker") ];
          i_bindings = [];
        };
      Impl
        { i_params = [ "T" ]; i_trait = tb "MgAny"; i_self = Name ("T", []); i_where = []; i_bindings = [] };
    ]
  in
  let rec wrap d t = if d = 0 then t else Name ("MgW", [ wrap (d - 1) t ]) in
  let goal g =
    match g mod 4 with
    | 0 ->
        (* provable distinct-family hit: the impl that exists *)
        let i = (g / 4 * 13) mod n_distinct in
        Goal (P_trait (Name (mgs i, []), tb (mgt distinct_trait.(i))))
    | 1 ->
        (* decisive miss: wrong trait, every candidate fast-rejects
           (mgt 0/1 also probe a blanket, refuted via MgMarker) *)
        let i = (g / 4 * 11) mod n_distinct in
        Goal (P_trait (Name (mgs i, []), tb (mgt ((distinct_trait.(i) + 1) mod nt))))
    | 2 ->
        (* provable overlapping-family hit: probes its whole
           constant-width family, exactly one member matches *)
        let i = (g / 4 * 17) mod n_overlap in
        Goal (P_trait (overlap_self i, tb (mgt family_trait.(i / family_width))))
    | _ -> Goal (P_trait (wrap 8 (Name (mgs 0, [])), tb "MgBlk"))
  in
  structs @ traits @ distinct @ overlap @ chain @ blankets
  @ List.init (max 4 goals) goal

(* ------------------------------------------------------------------ *)

let generate ~seed ~iter ~size : spec =
  let size = max 1 (min 4 size) in
  (* Mix the iteration index into the seed so each iteration is an
     independent, individually reproducible stream. *)
  let rng = Rng.create ~seed:(seed lxor ((iter + 1) * 0x9E3779B9) lxor (iter lsl 17)) in
  let ctx = { rng; structs = []; traits = [] } in
  (* structs *)
  let n_structs = 2 + Rng.int rng (1 + (2 * size)) in
  let structs =
    List.init n_structs (fun i ->
        let name =
          if Rng.bernoulli rng 0.2 then pick rng keywordish ^ string_of_int i
          else Printf.sprintf "S%d" i
        in
        let arity = pick rng [| 0; 0; 0; 1; 1; 2 |] in
        ctx.structs <- { si_name = name; si_arity = arity } :: ctx.structs;
        Struct { s_name = name; s_arity = arity })
  in
  (* traits: supertraits may only reference earlier traits, so the
     supertrait graph is acyclic by construction *)
  let n_traits = 1 + Rng.int rng (1 + size) in
  let traits =
    List.init n_traits (fun i ->
        let name = Printf.sprintf "T%d" i in
        let arity = pick rng [| 0; 0; 0; 1 |] in
        let assocs =
          if Rng.bernoulli rng 0.4 then
            [ { a_name = "Out";
                a_bounds =
                  (match ctx.traits with
                  | t :: _ when t.ti_arity = 0 && Rng.bernoulli rng 0.3 ->
                      [ { b_trait = t.ti_name; b_args = []; b_bindings = [] } ]
                  | _ -> []);
                a_default =
                  (if Rng.bernoulli rng 0.3 then
                     Some (gen_ty ctx ~params:[] ~holes:false 1)
                   else None);
              } ]
          else []
        in
        let supers =
          match ctx.traits with
          | [] -> []
          | earlier when Rng.bernoulli rng 0.3 ->
              let s = pick_list rng earlier in
              [ gen_bound ctx ~params:[] ~holes:false { s with ti_assocs = [] } ]
          | _ -> []
        in
        ctx.traits <-
          { ti_name = name; ti_arity = arity; ti_assocs = List.map (fun a -> a.a_name) assocs }
          :: ctx.traits;
        Trait { t_name = name; t_arity = arity; t_supers = supers; t_assocs = assocs })
  in
  (* impls *)
  let impls =
    List.concat_map
      (fun (t : trait_info) ->
        let n = Rng.int rng (1 + size) in
        (* at most one blanket (bare-parameter self) impl per trait: a
           second always-applicable candidate would multiply search
           paths instead of adding scenarios *)
        let seen_blanket = ref false in
        List.filter_map
          (fun _ ->
            match gen_impl ctx t with
            | Impl { i_self = Name (p, []); i_params; _ } as im
              when List.mem p i_params ->
                if !seen_blanket then None
                else begin
                  seen_blanket := true;
                  Some im
                end
            | im -> Some im)
          (List.init n Fun.id))
      ctx.traits
  in
  (* goals over ground (possibly holed) types *)
  let n_goals = 1 + Rng.int rng 3 in
  let goals = List.init n_goals (fun _ -> gen_goal ctx) in
  (* gadget: one of the three failure modes, most of the time *)
  let gadget =
    if Rng.bernoulli rng 0.8 then
      match Rng.int rng 3 with
      | 0 -> gadget_chain ctx
      | 1 -> gadget_cycle ctx
      | _ -> gadget_ambiguity ctx
    else []
  in
  structs @ traits @ impls @ goals @ gadget

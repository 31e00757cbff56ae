(* Structural fingerprints + the old→new program differ.

   Marshal with No_sharing gives a canonical byte string for the plain
   ADTs in Decl (no closures, no custom blocks): equal fingerprints ⇒
   structurally equal values.  Digesting keeps the comparison O(1) and
   the multiset diff below cheap.  We deliberately do NOT mask spans or
   impl_ids out of the digest — see fingerprint.mli for why bit-identity
   is the property incremental replay needs. *)

type dep =
  | Dep_type of Path.t
  | Dep_trait of Path.t
  | Dep_fn of Path.t
  | Dep_impls of Path.t

let dep_equal a b =
  match (a, b) with
  | Dep_type p, Dep_type q
  | Dep_trait p, Dep_trait q
  | Dep_fn p, Dep_fn q
  | Dep_impls p, Dep_impls q ->
      Path.equal p q
  | _ -> false

let dep_to_string = function
  | Dep_type p -> "type:" ^ Path.to_string p
  | Dep_trait p -> "trait:" ^ Path.to_string p
  | Dep_fn p -> "fn:" ^ Path.to_string p
  | Dep_impls p -> "impls:" ^ Path.to_string p

let fp (v : 'a) : string = Digest.string (Marshal.to_string v [ Marshal.No_sharing ])
let type_fp (d : Decl.tydecl) = fp d
let trait_fp (d : Decl.trdecl) = fp d
let fn_fp (d : Decl.fndecl) = fp d
let impl_fp (d : Decl.impl) = fp d

type diff = {
  dirty : dep list;
  changed_decls : int;
}

let no_diff = { dirty = []; changed_decls = 0 }

type table = {
  tb_types : string Path.Map.t;
  tb_traits : string Path.Map.t;
  tb_fns : string Path.Map.t;
  tb_impls : string list Path.Map.t;
      (* per-trait impl fingerprints, REVERSE program order — both sides
         of a diff are built the same way, so the comparison still
         detects any reorder within a trait *)
}

(* Impls have no path of their own: group by trait path and keep the
   per-trait fingerprint sequence.  Sorting the digest lists would make
   the comparison order-insensitive at the multiset level; but a reorder
   of two impls of the SAME trait must still dirty it because candidate
   order is declaration order — so we keep the (reversed) sequence. *)
let impl_seqs impls =
  List.fold_left
    (fun m (i : Decl.impl) ->
      let t = i.impl_trait.trait in
      let prev = Option.value ~default:[] (Path.Map.find_opt t m) in
      Path.Map.add t (impl_fp i :: prev) m)
    Path.Map.empty impls

let compute_table (p : Program.t) : table =
  let named (type a) (path : a -> Path.t) (fp : a -> string) (ds : a list) =
    List.fold_left (fun m d -> Path.Map.add (path d) (fp d) m) Path.Map.empty ds
  in
  {
    tb_types = named (fun (d : Decl.tydecl) -> d.ty_path) type_fp (Program.types p);
    tb_traits = named (fun (d : Decl.trdecl) -> d.tr_path) trait_fp (Program.traits p);
    tb_fns = named (fun (d : Decl.fndecl) -> d.fn_path) fn_fp (Program.fns p);
    tb_impls = impl_seqs (Program.impls p);
  }

(* Fingerprinting every declaration is the dominant cost of an edit on
   large programs (Marshal + MD5 per decl), and a watch/bench loop diffs
   the same program values over and over — so memoize tables by program
   stamp.  Equal stamps imply identical declaration contexts (see
   Program.stamp), making the memo exact.  Bounded: reset past 64
   programs (a watch session only ever holds two live versions). *)
let memo : (int, table) Hashtbl.t = Hashtbl.create 16
let memo_mu = Mutex.create ()
let max_memo = 64

let table (p : Program.t) : table =
  let stamp = Program.stamp p in
  Mutex.protect memo_mu (fun () ->
      match Hashtbl.find_opt memo stamp with
      | Some t -> t
      | None ->
          if Hashtbl.length memo >= max_memo then Hashtbl.reset memo;
          let t = compute_table p in
          Hashtbl.replace memo stamp t;
          t)

(* Diff two path-keyed fingerprint families.  A path present on one side
   only, or present on both with different fingerprints, is dirty. *)
let diff_named (old_m : string Path.Map.t) (new_m : string Path.Map.t) : Path.t list * int =
  let dirty = ref [] and count = ref 0 in
  let mark p = if not (List.exists (Path.equal p) !dirty) then dirty := p :: !dirty in
  Path.Map.iter
    (fun p f ->
      match Path.Map.find_opt p new_m with
      | Some f' when String.equal f f' -> ()
      | _ ->
          mark p;
          incr count)
    old_m;
  Path.Map.iter
    (fun p _ -> if not (Path.Map.mem p old_m) then ( mark p; incr count))
    new_m;
  (List.rev !dirty, !count)

let diff_impls old_m new_m : Path.t list * int =
  let dirty = ref [] and count = ref 0 in
  let changed_count a b =
    (* conservative per-trait decl count: symmetric difference size,
       at least 1 when the sequences differ at all *)
    max 1 (abs (List.length a - List.length b))
  in
  Path.Map.iter
    (fun t fps ->
      match Path.Map.find_opt t new_m with
      | Some fps' when List.equal String.equal fps fps' -> ()
      | Some fps' ->
          dirty := t :: !dirty;
          count := !count + changed_count fps fps'
      | None ->
          dirty := t :: !dirty;
          count := !count + List.length fps)
    old_m;
  Path.Map.iter
    (fun t fps ->
      if not (Path.Map.mem t old_m) then (
        dirty := t :: !dirty;
        count := !count + List.length fps))
    new_m;
  (List.rev !dirty, !count)

(* The differ itself is also memoized by stamp pair: a watch loop (or
   the toggle benchmark) repeatedly diffs the same two program versions,
   and equal stamps imply identical declaration contexts, so the
   classification cannot change. *)
let diff_memo : (int * int, diff) Hashtbl.t = Hashtbl.create 16
let diff_memo_mu = Mutex.create ()

let compute_diff ~old_program ~new_program =
  let old_t = table old_program and new_t = table new_program in
  let ty_dirty, ty_n = diff_named old_t.tb_types new_t.tb_types in
  let tr_dirty, tr_n = diff_named old_t.tb_traits new_t.tb_traits in
  let fn_dirty, fn_n = diff_named old_t.tb_fns new_t.tb_fns in
  let impl_dirty, impl_n = diff_impls old_t.tb_impls new_t.tb_impls in
  let dirty =
    List.map (fun p -> Dep_type p) ty_dirty
    @ List.map (fun p -> Dep_trait p) tr_dirty
    @ List.map (fun p -> Dep_fn p) fn_dirty
    @ List.map (fun p -> Dep_impls p) impl_dirty
  in
  { dirty; changed_decls = ty_n + tr_n + fn_n + impl_n }

let diff ~old_program ~new_program =
  let key = (Program.stamp old_program, Program.stamp new_program) in
  Mutex.protect diff_memo_mu (fun () ->
      match Hashtbl.find_opt diff_memo key with
      | Some d -> d
      | None ->
          if Hashtbl.length diff_memo >= max_memo then Hashtbl.reset diff_memo;
          let d = compute_diff ~old_program ~new_program in
          Hashtbl.replace diff_memo key d;
          d)

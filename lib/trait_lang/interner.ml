(** Hash-consing for L_TRAIT terms.

    Every distinct type, generic argument, trait ref, projection and
    predicate is stored once in a table and given a unique id and a
    precomputed hash.  Interned terms are *maximally shared*: two
    structurally equal terms returned by {!ty} (resp. {!predicate}, ...)
    are physically equal, so the [a == b] fast paths added to
    {!Ty.equal}/{!Predicate.equal} turn deep structural comparison into a
    pointer comparison on the hot solver paths, and the solver's
    evaluation cache ({!Solver.Eval_cache}) can key on [(id, hash)] pairs
    in O(1).

    The memo tables are keyed by a {e shallow} node description in which
    every child position holds the child's intern id rather than the child
    itself, so hashing and equality of keys never recurse into subterms:
    interning is O(size) the first time a term is seen and O(size) with
    all-hit table lookups thereafter (each lookup itself O(1)).

    The tables are plain module state, used by the main domain only.
    They grow for the lifetime of the process; {!clear} empties them
    (existing terms stay valid, they just stop being canonical). *)

(* Telemetry: node-level hit/miss counts across all tables. *)
let c_hit = Telemetry.counter "interner.hit"
let c_miss = Telemetry.counter "interner.miss"

type 'a interned = { node : 'a; id : int; hash : int }

(* ------------------------------------------------------------------ *)
(* Shallow keys: child positions are intern ids, leaves are inline.    *)

type arg_key = KTy of int | KLifetime of Region.t

type ty_key =
  | KUnit
  | KBool
  | KInt
  | KUint
  | KFloat
  | KStr
  | KParam of string
  | KInfer of int
  | KRef of Region.t * int
  | KRefMut of Region.t * int
  | KCtor of Path.t * int list
  | KTuple of int list
  | KFnPtr of int list * int
  | KFnItem of Path.t * int list * int
  | KDynamic of int
  | KProj of int

type trait_ref_key = Path.t * int list
type projection_key = int * int * string * int list

type pred_key =
  | KTrait of int * int  (** self ty id, trait ref id *)
  | KProjectionEq of int * int  (** projection id, term ty id *)
  | KTypeOutlives of int * Region.t
  | KRegionOutlives of Region.t * Region.t
  | KWellFormed of int
  | KObjectSafe of Path.t
  | KConstEvaluatable of string
  | KNormalizesTo of int * int  (** projection id, output var *)

(* Shallow keys bottom out at ids/paths/regions/strings, so the default
   polymorphic hash sees the whole key without deep recursion. *)
let key_hash k = Hashtbl.hash_param 64 128 k

(* The tables.  One id space across every table, so an id identifies a
   term of any sort. *)
let ty_tbl : (ty_key, Ty.t interned) Hashtbl.t = Hashtbl.create 1024
let arg_tbl : (arg_key, Ty.arg interned) Hashtbl.t = Hashtbl.create 1024
let trait_ref_tbl : (trait_ref_key, Ty.trait_ref interned) Hashtbl.t = Hashtbl.create 256
let projection_tbl : (projection_key, Ty.projection interned) Hashtbl.t = Hashtbl.create 256
let pred_tbl : (pred_key, Predicate.t interned) Hashtbl.t = Hashtbl.create 512
let next_id = ref 0

let fresh_id () =
  let id = !next_id in
  next_id := id + 1;
  id

let memo : ('k, 'v interned) Hashtbl.t -> 'k -> (unit -> 'v) -> 'v interned =
 fun tbl key build ->
  match Hashtbl.find_opt tbl key with
  | Some info ->
      Telemetry.incr c_hit;
      info
  | None ->
      Telemetry.incr c_miss;
      let info = { node = build (); id = fresh_id (); hash = key_hash key } in
      Hashtbl.add tbl key info;
      info

(* Rebuild a node from canonical children only when some child actually
   changed, so re-interning an already-canonical term allocates nothing
   beyond the key. *)
let share1 orig x x' rebuild = if x == x' then orig else rebuild ()

(* ------------------------------------------------------------------ *)
(* Interning proper.  Children are interned first; the parent's key is  *)
(* then assembled from their ids.                                      *)

let rec ty_info (t : Ty.t) : Ty.t interned =
  match t with
  | Unit -> memo ty_tbl KUnit (fun () -> t)
  | Bool -> memo ty_tbl KBool (fun () -> t)
  | Int -> memo ty_tbl KInt (fun () -> t)
  | Uint -> memo ty_tbl KUint (fun () -> t)
  | Float -> memo ty_tbl KFloat (fun () -> t)
  | Str -> memo ty_tbl KStr (fun () -> t)
  | Param name -> memo ty_tbl (KParam name) (fun () -> t)
  | Infer i -> memo ty_tbl (KInfer i) (fun () -> t)
  | Ref (r, inner) ->
      let i = ty_info inner in
      memo ty_tbl (KRef (r, i.id)) (fun () ->
          share1 t inner i.node (fun () -> Ty.Ref (r, i.node)))
  | RefMut (r, inner) ->
      let i = ty_info inner in
      memo ty_tbl (KRefMut (r, i.id)) (fun () ->
          share1 t inner i.node (fun () -> Ty.RefMut (r, i.node)))
  | Ctor (p, args) ->
      let infos = List.map arg_info args in
      memo ty_tbl
        (KCtor (p, List.map (fun (i : _ interned) -> i.id) infos))
        (fun () ->
          let args' = Ty.map_sharing arg args in
          share1 t args args' (fun () -> Ty.Ctor (p, args')))
  | Tuple ts ->
      let infos = List.map ty_info ts in
      memo ty_tbl
        (KTuple (List.map (fun (i : _ interned) -> i.id) infos))
        (fun () ->
          let ts' = Ty.map_sharing ty ts in
          share1 t ts ts' (fun () -> Ty.Tuple ts'))
  | FnPtr (args, ret) ->
      let ais = List.map ty_info args and ri = ty_info ret in
      memo ty_tbl
        (KFnPtr (List.map (fun (i : _ interned) -> i.id) ais, ri.id))
        (fun () ->
          let args' = Ty.map_sharing ty args in
          if args' == args && ri.node == ret then t else Ty.FnPtr (args', ri.node))
  | FnItem (p, args, ret) ->
      let ais = List.map ty_info args and ri = ty_info ret in
      memo ty_tbl
        (KFnItem (p, List.map (fun (i : _ interned) -> i.id) ais, ri.id))
        (fun () ->
          let args' = Ty.map_sharing ty args in
          if args' == args && ri.node == ret then t else Ty.FnItem (p, args', ri.node))
  | Dynamic tr ->
      let i = trait_ref_info tr in
      memo ty_tbl (KDynamic i.id) (fun () ->
          share1 t tr i.node (fun () -> Ty.Dynamic i.node))
  | Proj p ->
      let i = projection_info p in
      memo ty_tbl (KProj i.id) (fun () ->
          share1 t p i.node (fun () -> Ty.Proj i.node))

and arg_info (a : Ty.arg) : Ty.arg interned =
  match a with
  | Ty t ->
      let i = ty_info t in
      memo arg_tbl (KTy i.id) (fun () -> share1 a t i.node (fun () -> Ty.Ty i.node))
  | Lifetime r -> memo arg_tbl (KLifetime r) (fun () -> a)

and trait_ref_info (tr : Ty.trait_ref) : Ty.trait_ref interned =
  let infos = List.map arg_info tr.args in
  memo trait_ref_tbl
    (tr.trait, List.map (fun (i : _ interned) -> i.id) infos)
    (fun () ->
      let args' = Ty.map_sharing arg tr.args in
      share1 tr tr.args args' (fun () : Ty.trait_ref -> { tr with args = args' }))

and projection_info (p : Ty.projection) : Ty.projection interned =
  let si = ty_info p.self_ty
  and ti = trait_ref_info p.proj_trait
  and ais = List.map arg_info p.assoc_args in
  memo projection_tbl
    (si.id, ti.id, p.assoc, List.map (fun (i : _ interned) -> i.id) ais)
    (fun () ->
      let assoc_args' = Ty.map_sharing arg p.assoc_args in
      if si.node == p.self_ty && ti.node == p.proj_trait && assoc_args' == p.assoc_args
      then p
      else
        { p with self_ty = si.node; proj_trait = ti.node; assoc_args = assoc_args' })

and ty t = (ty_info t).node
and arg a = (arg_info a).node

let predicate_info (p : Predicate.t) : Predicate.t interned =
  match p with
  | Trait { self_ty; trait_ref = tr } ->
      let si = ty_info self_ty and ti = trait_ref_info tr in
      memo pred_tbl (KTrait (si.id, ti.id)) (fun () ->
          if si.node == self_ty && ti.node == tr then p
          else Predicate.Trait { self_ty = si.node; trait_ref = ti.node })
  | Projection { projection = pr; term } ->
      let pi = projection_info pr and ti = ty_info term in
      memo pred_tbl (KProjectionEq (pi.id, ti.id)) (fun () ->
          if pi.node == pr && ti.node == term then p
          else Predicate.Projection { projection = pi.node; term = ti.node })
  | TypeOutlives (t, r) ->
      let i = ty_info t in
      memo pred_tbl (KTypeOutlives (i.id, r)) (fun () ->
          if i.node == t then p else Predicate.TypeOutlives (i.node, r))
  | RegionOutlives (a, b) -> memo pred_tbl (KRegionOutlives (a, b)) (fun () -> p)
  | WellFormed t ->
      let i = ty_info t in
      memo pred_tbl (KWellFormed i.id) (fun () ->
          if i.node == t then p else Predicate.WellFormed i.node)
  | ObjectSafe path -> memo pred_tbl (KObjectSafe path) (fun () -> p)
  | ConstEvaluatable s -> memo pred_tbl (KConstEvaluatable s) (fun () -> p)
  | NormalizesTo (pr, v) ->
      let i = projection_info pr in
      memo pred_tbl (KNormalizesTo (i.id, v)) (fun () ->
          if i.node == pr then p else Predicate.NormalizesTo (i.node, v))

let trait_ref tr = (trait_ref_info tr).node
let projection p = (projection_info p).node
let predicate p = (predicate_info p).node

(* ------------------------------------------------------------------ *)
(* Stats / reset.                                                      *)

type stats = {
  st_tys : int;
  st_args : int;
  st_trait_refs : int;
  st_projections : int;
  st_predicates : int;
}

let stats () =
  {
    st_tys = Hashtbl.length ty_tbl;
    st_args = Hashtbl.length arg_tbl;
    st_trait_refs = Hashtbl.length trait_ref_tbl;
    st_projections = Hashtbl.length projection_tbl;
    st_predicates = Hashtbl.length pred_tbl;
  }

let clear () =
  Hashtbl.reset ty_tbl;
  Hashtbl.reset arg_tbl;
  Hashtbl.reset trait_ref_tbl;
  Hashtbl.reset projection_tbl;
  Hashtbl.reset pred_tbl

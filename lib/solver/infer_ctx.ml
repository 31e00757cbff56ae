(** The inference context: a growable union-find table of type inference
    variables with an undo log for snapshot/rollback.

    Candidate probing is speculative — the solver tries a candidate under a
    snapshot and rolls back, keeping the bindings of a success so the
    committed candidate's can be written back — the discipline rustc's
    [InferCtxt] uses. *)

open Trait_lang

type binding = Unbound | Link of int | Bound of Ty.t

(* Telemetry: speculative-probing traffic.  The snapshot/rollback ratio is
   the "candidates probed vs committed" cost profile of §4. *)
let c_snapshots = Telemetry.counter "infer.snapshots"
let c_rollbacks = Telemetry.counter "infer.rollbacks"
let c_commits = Telemetry.counter "infer.commits"
let c_fresh = Telemetry.counter "infer.fresh_vars"

type undo = Set of int  (** variable [i] went from [Unbound] to something *)

type t = {
  mutable table : binding array;
  mutable len : int;
  mutable undo_log : undo list;
  mutable undo_len : int;  (** [List.length undo_log], maintained *)
  mutable snapshots : int list;  (** undo-log lengths at open snapshots *)
}

let create ?(first_var = 0) () =
  let n = max 16 (first_var * 2) in
  {
    table = Array.make n Unbound;
    len = first_var;
    undo_log = [];
    undo_len = 0;
    snapshots = [];
  }

(** Create a context whose fresh variables start above every inference
    variable mentioned in the program's goals (the parser numbers [_]
    holes from 0). *)
let for_program (p : Program.t) =
  let max_var =
    List.fold_left
      (fun acc (g : Program.goal) ->
        List.fold_left max acc (Predicate.infer_vars g.goal_pred))
      (-1) (Program.goals p)
  in
  create ~first_var:(max_var + 1) ()

let ensure_capacity t i =
  if i >= Array.length t.table then begin
    let table = Array.make (max (2 * Array.length t.table) (i + 1)) Unbound in
    Array.blit t.table 0 table 0 t.len;
    t.table <- table
  end;
  if i >= t.len then t.len <- i + 1

let fresh t =
  Telemetry.incr c_fresh;
  let i = t.len in
  ensure_capacity t i;
  i

let fresh_ty t = Ty.Infer (fresh t)

let num_vars t = t.len

(* --- snapshots ------------------------------------------------------ *)

type snapshot = {
  mark : int;  (** length of the undo log when opened *)
  serial : int;  (** globally unique, for journal correlation *)
}

(* Serials are per-process rather than per-context so a journal stream
   interleaving several inference contexts still has unambiguous
   snapshot IDs; reset before each solve, they are deterministic. *)
let snap_serial = ref 0

let reset_snapshot_serial () = snap_serial := 0

let snapshot t : snapshot =
  Telemetry.incr c_snapshots;
  let mark = t.undo_len in
  t.snapshots <- mark :: t.snapshots;
  incr snap_serial;
  let serial = !snap_serial in
  if Journal.enabled () then
    Journal.emit (Journal.Snapshot_open { snap = serial; node = Journal.current_node () });
  { mark; serial }

type bindings = (int * binding) list

(* Pop the undo log down to the snapshot's mark, unbinding each slot;
   with [keep], also return the undone slots, oldest first. *)
let rollback ~keep t ({ mark; serial } : snapshot) : bindings =
  Telemetry.incr c_rollbacks;
  if Journal.enabled () then Journal.emit (Journal.Snapshot_rollback { snap = serial });
  let rec pop kept log n = if n <= mark then (log, kept) else match log with
    | Set i :: rest ->
        let kept = if keep then (i, t.table.(i)) :: kept else kept in
        t.table.(i) <- Unbound;
        pop kept rest (n - 1)
    | [] -> ([], kept)
  in
  let log, kept = pop [] t.undo_log t.undo_len in
  t.undo_log <- log;
  t.undo_len <- min t.undo_len mark;
  t.snapshots <- List.filter (fun m -> m < mark) t.snapshots;
  kept

let rollback_to t snap = ignore (rollback ~keep:false t snap)
let rollback_keep t snap = rollback ~keep:true t snap

(** Commit: simply forget the snapshot; bindings stay. *)
let commit t ({ mark; serial } : snapshot) =
  Telemetry.incr c_commits;
  if Journal.enabled () then Journal.emit (Journal.Snapshot_commit { snap = serial });
  t.snapshots <- List.filter (fun m -> m < mark) t.snapshots

(* --- resolution ------------------------------------------------------ *)

(** Follow links to the representative of variable [i]. *)
let rec root t i =
  ensure_capacity t i;
  match t.table.(i) with Link j -> root t j | _ -> i

let probe t i =
  let r = root t i in
  match t.table.(r) with Bound ty -> Some ty | _ -> None

let bind t i ty =
  let r = root t i in
  assert (t.table.(r) = Unbound);
  t.table.(r) <- Bound ty;
  t.undo_log <- Set r :: t.undo_log;
  t.undo_len <- t.undo_len + 1

let link t i j =
  let ri = root t i and rj = root t j in
  if ri <> rj then begin
    assert (t.table.(ri) = Unbound);
    t.table.(ri) <- Link rj;
    t.undo_log <- Set ri :: t.undo_log;
    t.undo_len <- t.undo_len + 1
  end

(* --- raw slot access (evaluation-cache replay) ----------------------- *)

(* The evaluation cache replicates the exact table state a memoized
   evaluation would have produced: it captures the slots of the variable
   range the evaluation allocated and, on a hit, re-allocates the range
   and writes the (renumbered) slots back, undo-logged like any binding
   so enclosing snapshots roll them back correctly. *)

let alloc_vars t n =
  let first = t.len in
  for _ = 1 to n do
    ignore (fresh t)
  done;
  first

let slot t i =
  ensure_capacity t i;
  t.table.(i)

let set_slot t i (b : binding) =
  match b with
  | Unbound -> ()
  | Link _ | Bound _ ->
      ensure_capacity t i;
      assert (t.table.(i) = Unbound);
      t.table.(i) <- b;
      t.undo_log <- Set i :: t.undo_log;
      t.undo_len <- t.undo_len + 1

let undo_mark t = t.undo_len

let reapply t (bs : bindings) = List.iter (fun (i, b) -> set_slot t i b) bs

(** Variables set (and not since rolled back) after undo mark [mark],
    oldest first. *)
let sets_since t mark =
  let rec go acc log n =
    if n <= mark then acc
    else match log with Set i :: rest -> go (i :: acc) rest (n - 1) | [] -> acc
  in
  go [] t.undo_log t.undo_len

(** Structurally resolve a type: replace every bound inference variable by
    its (recursively resolved) value.  Sharing-preserving, like
    {!Subst}: a term with nothing to resolve comes back physically, so
    ground goals stay the program's own (interned) terms and the [==]
    fast path of {!Predicate.equal} fires in the cycle check and the
    evaluation cache. *)
let rec resolve t ty = Ty.map_infer (resolve_var t) ty

and resolve_var t node i =
  let r = root t i in
  match t.table.(r) with
  | Bound b -> resolve t b
  | _ -> if r = i then node else Ty.Infer r

let resolve_arg t = Ty.map_infer_arg (resolve_var t)
let resolve_trait_ref t = Ty.map_infer_trait_ref (resolve_var t)
let resolve_projection t = Ty.map_infer_projection (resolve_var t)
let resolve_predicate t = Predicate.map_infer (resolve_var t)

(** Instantiate a declaration's generics with fresh inference variables,
    returning the substitution. *)
let instantiate_generics t (g : Trait_lang.Decl.generics) : Subst.t =
  let s =
    List.fold_left (fun s p -> Subst.add_ty p (fresh_ty t) s) Subst.empty g.ty_params
  in
  List.fold_left (fun s l -> Subst.add_region l Region.Erased s) s g.lifetimes

(** Definition paths.

    Every declared item (struct, trait, impl, function) lives at a
    definition path such as [diesel::expression::AppearsOnTable].  Paths
    record provenance — which crate an item belongs to — which drives both
    the ShortTys interface principle (print only the final segment by
    default, the full path on demand) and the orphan-rule component of the
    inertia heuristic. *)

type crate =
  | Local  (** the crate under analysis, i.e. the user's own code *)
  | External of string  (** a dependency, e.g. [External "diesel"] *)

type t = {
  crate : crate;
  segments : string list;  (** module segments, then the item name; nonempty *)
}

let v ?(crate = Local) segments =
  if segments = [] then invalid_arg "Path.v: empty segment list";
  { crate; segments }

let local segments = v ~crate:Local segments
let external_ krate segments = v ~crate:(External krate) segments

(** The item's own name: the last segment. *)
let name p =
  match List.rev p.segments with
  | last :: _ -> last
  | [] -> assert false

let crate p = p.crate
let segments p = p.segments

let is_local p = p.crate = Local

let crate_name p = match p.crate with Local -> "crate" | External s -> s

(** Fully-qualified rendering, e.g. [diesel::expression::AppearsOnTable].
    Local items are prefixed with [crate::] only when [explicit_crate]. *)
let to_string ?(explicit_crate = false) p =
  let prefix =
    match p.crate with
    | External s -> [ s ]
    | Local -> if explicit_crate then [ "crate" ] else []
  in
  String.concat "::" (prefix @ p.segments)

let pp ppf p = Fmt.string ppf (to_string p)

let equal a b =
  a == b
  || (match (a.crate, b.crate) with
     | Local, Local -> true
     | External s, External s' -> String.equal s s'
     | _ -> false)
     && List.equal String.equal a.segments b.segments

(* [Local] sorts before every [External], crates by name *)
let compare a b =
  if a == b then 0
  else
    let c =
      match (a.crate, b.crate) with
      | Local, Local -> 0
      | Local, External _ -> -1
      | External _, Local -> 1
      | External s, External s' -> String.compare s s'
    in
    if c <> 0 then c else List.compare String.compare a.segments b.segments

(* Monomorphic, unlike [Hashtbl.hash]: no generic traversal of the
   record and its list. *)
let hash p =
  List.fold_left
    (fun h s -> (h * 31) + String.hash s)
    (match p.crate with Local -> 0 | External s -> String.hash s)
    p.segments

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

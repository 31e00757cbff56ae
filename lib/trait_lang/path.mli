(** Definition paths with crate provenance.

    Provenance drives both the ShortTys printing principle (final segment
    by default, full path on demand) and the orphan-rule component of the
    inertia heuristic. *)

type crate =
  | Local  (** the crate under analysis *)
  | External of string  (** a dependency, e.g. [External "diesel"] *)

type t = { crate : crate; segments : string list }

(** @raise Invalid_argument on an empty segment list. *)
val v : ?crate:crate -> string list -> t

val local : string list -> t
val external_ : string -> string list -> t

(** The item's own name: the last segment. *)
val name : t -> string

val crate : t -> crate
val segments : t -> string list
val is_local : t -> bool
val crate_name : t -> string

(** Fully-qualified rendering; local items get [crate::] only when
    [explicit_crate]. *)
val to_string : ?explicit_crate:bool -> t -> string

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
val compare : t -> t -> int

(** Structural, consistent with {!equal}. *)
val hash : t -> int

module Ord : Stdlib.Map.OrderedType with type t = t
module Map : Stdlib.Map.S with type key = t
module Set : Stdlib.Set.S with type elt = t

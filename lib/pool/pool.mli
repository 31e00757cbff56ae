(** A sequential stand-in for the old domain pool.  argus runs on one
    domain; this module keeps only the signatures that the end-to-end
    benchmark's serve-editor workload still calls, and goes when that
    workload stops calling them.

    {!map} is an in-order [List.map] on the calling domain, so a raising
    element raises at once and later elements do not run. *)

type t

(** @raise Invalid_argument when [jobs < 1]. *)
val create : jobs:int -> t

(** [map pool f xs] is [List.map f xs], applied in order. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** Does nothing. *)
val shutdown : t -> unit

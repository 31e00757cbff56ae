(** Deterministic program-level edit scripts.

    An edit script is a sequence of single-declaration operations applied
    to a parsed {!Trait_lang.Program.t}, producing successive program
    versions the way a user editing a file would: impl-set changes, goal
    changes, and no-op-shaped structural churn.

    The [serve] fuzz oracle reloads each version through a live session
    and demands responses byte-identical to scratch runs; the serve load
    generator uses a one-step script as its reload payload. *)

open Trait_lang

type op =
  | Remove_impl of int  (** drop the [i]-th impl (program order) *)
  | Dup_impl of int  (** duplicate it under a fresh [impl_id] (overlap) *)
  | Drop_where of int  (** strip the last where-clause of the [i]-th impl *)
  | Swap_impls of int * int  (** exchange two impls (candidate order) *)
  | Remove_goal of int
  | Dup_goal of int
  | Add_struct of int  (** add an unused [newtype ZEdit<n>] *)

val describe : op -> string

(** Apply one operation; identity when the index is out of range. *)
val apply : Program.t -> op -> Program.t

(** A deterministic [steps]-long script for this program: the chosen ops
    and the successive program versions (one per op, base excluded). *)
val script : seed:int -> steps:int -> Program.t -> (op * Program.t) list

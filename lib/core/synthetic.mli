(** Synthetic inference trees for performance evaluation (Fig. 12b).

    Generated trees follow the structure of real inference trees: a
    sparse failing skeleton inside a large, mostly-successful body, with
    the skeleton growing with the target size.  Generation is
    deterministic. *)

type config = {
  target_goals : int;  (** approximate number of goal nodes *)
  failure_depth : int;  (** depth of the failing skeleton *)
  or_every : int;  (** an extra failing branch every n levels *)
}

val config_of_size : int -> config
val generate : config -> Proof_tree.t

(** A tree with roughly [n] goal nodes. *)
val of_size : int -> Proof_tree.t

(** The sizes Fig. 12b is measured at, up to the paper's maximum of
    36,794 nodes. *)
val fig12b_sizes : int list

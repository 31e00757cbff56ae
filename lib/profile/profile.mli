(** Per-goal cost attribution: fold a {!Journal} stream into a
    cost-annotated goal/candidate tree.

    Telemetry answers {e how much} and the journal answers {e what
    happened}; this module joins them — every goal and candidate frame
    gets self/total wall time (from the stream's [ts_ns] deltas), unify
    attempt tallies, and (when recorded live through
    {!record}) sampled GC allocation words.  The tree exports three
    ways: the [top -N] hot-goal table, folded-stack / speedscope
    flamegraphs (encoders in {!Argus_json.Flame}), and heat overlays on
    the HTML proof-tree renderer keyed by the stable journal node IDs
    that proof-tree nodes already carry ([trace_id] / [cand_trace_id]). *)

open Trait_lang

(** {1 The cost tree} *)

type kind =
  | Goal of { pred : Predicate.t; prov : Journal.prov }
  | Cand of { source : Journal.source }

type node = {
  p_id : int;  (** stable journal node ID *)
  mutable p_kind : kind;
      (** the exit event's predicate is authoritative for goals (§4
          statefulness), so the kind is rewritten on exit *)
  p_depth : int;  (** nesting depth in the cost tree (roots are 0) *)
  p_enter_ns : int;  (** raw [ts_ns] at enter *)
  mutable p_exit_ns : int;
  mutable p_result : Journal.res;
  mutable p_total_ns : int;  (** enter → exit wall time *)
  mutable p_self_ns : int;  (** total minus the children's totals *)
  mutable p_unify : int;  (** unify attempts attributed to this frame *)
  mutable p_unify_failures : int;
  mutable p_total_w : float;  (** sampled GC words enter → exit; 0 offline *)
  mutable p_self_w : float;
  mutable p_children : node list;  (** in evaluation order *)
}

type t = {
  roots : node list;  (** root goal frames, in stream order *)
  total_ns : int;  (** sum of the roots' totals *)
  total_w : float;
  events : int;  (** journal entries consumed *)
  index : (int, node) Hashtbl.t;  (** stable node ID → frame *)
  has_words : bool;  (** allocation samples were available *)
  zero_ts : bool;
      (** every timestamp was identical — a normalized journal (e.g.
          [argus check --events-out] zeroes [ts_ns] for determinism), so
          the time columns are meaningless *)
}

(** Attribute a journal stream.  [words.(i)] is a cumulative
    allocated-words sample taken when the [i]-th entry was emitted (see
    {!record}); omit it for offline streams.  Robust to truncated
    streams: frames still open at the end are closed at the last
    timestamp seen. *)
val of_entries : ?words:float array -> Journal.entry list -> t

(** Run [f] with an in-memory journal sink that also samples cumulative
    GC allocated words ([minor + major - promoted]) at each event.
    Returns [f]'s result, the recorded stream, and the word samples —
    ready for {!of_entries}.  Replaces any installed journal sink for
    the duration and removes it afterwards. *)
val record : (unit -> 'a) -> 'a * Journal.entry list * float array

(** The frame's flamegraph/table label (pretty predicate for goals,
    candidate source otherwise). *)
val label : node -> string

(** Pre-order iteration/fold over every frame. *)
val iter : (node -> unit) -> t -> unit

val fold : ('a -> node -> 'a) -> 'a -> t -> 'a

(** {1 Aggregation: the [top -N] table} *)

type agg = {
  a_label : string;
  a_count : int;  (** frames merged into this row *)
  a_self_ns : int;
  a_total_ns : int;
      (** recursion-safe: a frame's total is only added when no ancestor
          frame shares its label *)
  a_unify : int;
  a_self_w : float;
}

(** Goal frames aggregated by label, hottest self time first, truncated
    to [n] rows ([n <= 0] keeps everything). *)
val top_goals : t -> int -> agg list

(** Candidate frames aggregated by source label, hottest first. *)
val by_source : t -> agg list

(** {1 Exports} *)

(** Folded-stack rows (root-first label stacks, self-time values) for
    {!Argus_json.Flame.folded}.  The row values sum to {!val-t.total_ns}
    exactly: every nanosecond of a root's total is attributed to exactly
    one frame's self time. *)
val folded : t -> (string list * int) list

(** Open/close frame events (offsets rebased to the first root's enter)
    for {!Argus_json.Flame.speedscope}, plus the profile's end offset. *)
val frame_events : t -> Argus_json.Flame.frame_event list * int

(** Rendered [top -N] table (goals, then candidate sources). *)
val top_table : ?top:int -> t -> string

(** One-line heat annotation for the frame with this journal node ID:
    [(intensity in \[0,1\], "self 1.2us (34%) · total 5.6us")].  [None]
    when the ID has no frame or the profile carries no time. *)
val heat_of_id : t -> int -> (float * string) option

(** {1 The perf-regression gate}

    [bench --diff]'s comparison of two [BENCH_pipeline.json] files —
    re-exported here because this is the library's root module. *)
module Bench_diff : module type of Bench_diff

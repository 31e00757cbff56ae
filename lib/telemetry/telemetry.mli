(** Runtime telemetry: monotonic-clock spans, named counters, and
    log-bucketed latency histograms behind one globally-toggleable sink.

    With the sink disabled (the default) every recording operation is a
    single load + branch and allocates nothing, so instrumentation can sit
    on hot solver paths; see the implementation header for the full design
    constraints.  Chrome-trace JSON export lives in
    {!Argus_json.Telemetry_export}.

    Single-domain: all state is plain module state, read and written by
    the main domain only. *)

(** {1 The global sink} *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

(** Zero every counter, histogram, and the trace buffer; registered
    handles stay valid. *)
val reset : unit -> unit

(** Monotonic nanoseconds ([CLOCK_MONOTONIC]); unboxed on 64-bit. *)
val now_ns : unit -> int

(** {1 Counters} *)

type counter

(** Find or register the counter with this name (idempotent). *)
val counter : string -> counter

val incr : counter -> unit
val add : counter -> int -> unit

(** High-water-mark semantics: keep the largest value ever recorded. *)
val record_max : counter -> int -> unit

val value : counter -> int

(** Current value by name; 0 if never registered. *)
val counter_value : string -> int

(** {1 Log-bucketed histograms} *)

type histogram

(** Find or register the histogram with this name (idempotent). *)
val histogram : string -> histogram

(** Record a nanosecond sample (negative values clamp to 0). *)
val observe : histogram -> int -> unit

(** Bucket-estimated [q]-quantile (0 < q <= 1), clamped to the observed
    min/max — exact for 0 or 1 samples, within one power of two beyond. *)
val quantile : histogram -> float -> float

(** {1 Spans and the trace-event buffer} *)

type phase = Span_begin | Span_end

type event = {
  ev_name : string;
  ev_phase : phase;
  ev_ts : int;  (** monotonic nanoseconds *)
  ev_depth : int;  (** nesting depth at emission *)
}

type span

(** A span handle: a static name plus the histogram its durations feed. *)
val span : string -> span

(** Open a span: emits a begin event and returns the start timestamp, or
    [-1] when disabled (making the matching [end_] a no-op). *)
val begin_ : span -> int

(** Close a span opened by [begin_]: emits the end event and records the
    duration into the span's histogram. *)
val end_ : span -> int -> unit

(** [with_span s f] wraps [f ()] in a span, closing it on exceptions. *)
val with_span : span -> (unit -> 'a) -> 'a

(** Buffered trace events, in emission order. *)
val events : unit -> event list

(** Events discarded after the buffer filled (bounded at {!max_events}
    between resets, 64k by default). *)
val dropped_events : unit -> int

(** The event-buffer cap currently in force. *)
val max_events : unit -> int

(** Resize the event-buffer cap (clamped to at least 256).
    Applies to events recorded after the call; already-buffered events
    are never discarded by shrinking.  Exposed as [--trace-buffer N] in
    the CLI. *)
val set_max_events : int -> unit

(** Strict stack discipline: every end closes the most recent begin of
    the same name. *)
val well_formed_events : event list -> bool

(** {1 Snapshots and the report table} *)

type hist_summary = {
  hs_name : string;
  hs_count : int;
  hs_sum_ns : int;
  hs_p50 : float;
  hs_p90 : float;
  hs_p99 : float;
}

type snapshot = {
  sn_counters : (string * int) list;  (** sorted by name *)
  sn_spans : hist_summary list;  (** sorted by name *)
  sn_events : event list;  (** in emission order *)
  sn_dropped : int;
}

val snapshot : unit -> snapshot

(** "1.23ms"-style human formatting of a nanosecond quantity. *)
val format_ns : float -> string

(** The per-phase timing/counter table printed by [argus --profile].
    Every registered span and counter appears, including never-hit ones. *)
val report_to_string : ?title:string -> snapshot -> string

(** Runtime telemetry: monotonic-clock spans, named counters, and
    log-bucketed latency histograms behind one globally-toggleable sink.

    The paper's evaluation (Fig. 12b) measures where pipeline time goes —
    DNF normalization time against inference-tree size — and the ROADMAP's
    perf items (sharding, caching, batching) all need a before/after story.
    This module is the substrate: every layer (solver, extraction, views,
    type checker) registers counters and spans at module initialization
    and records into them unconditionally; whether anything happens is a
    single global branch.

    Design constraints:

    - {b disabled is free}: with the sink off (the default), [incr],
      [observe], [begin_], and [end_] are one load + branch and allocate
      nothing, so instrumentation can live on hot solver paths;
    - {b handles, not strings}: instrumented modules resolve names to
      handles once at init ([let c = Telemetry.counter "unify.attempts"]),
      so the hot path never hashes;
    - {b monotonic time}: timestamps come from [CLOCK_MONOTONIC] (the same
      clock the bench harness uses), in integer nanoseconds — unboxed on
      64-bit, so reading the clock does not allocate either;
    - {b bounded traces}: span begin/end events land in a fixed-capacity
      buffer for Chrome-trace export; overflow is counted, never silent;
    - {b one domain}: argus runs on the main domain only, so counters
      are plain mutable ints and every span lands in one event buffer,
      in emission order, with no locks on any path.

    The JSON exporter lives in {!Argus_json.Telemetry_export} (it needs the
    JSON library, which sits above this one in the dependency order). *)

(* ------------------------------------------------------------------ *)
(* The global sink toggle *)

let enabled_flag = ref false

let enabled () = !enabled_flag
let enable () = enabled_flag := true
let disable () = enabled_flag := false

(** Monotonic nanoseconds.  [int] holds ±292 years of nanoseconds on
    64-bit platforms, and unlike [Int64.t] it never boxes. *)
let now_ns () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())

(* ------------------------------------------------------------------ *)
(* Counters *)

type counter = int ref

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name =
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
      let c = ref 0 in
      Hashtbl.add counters name c;
      c

let incr c = if !enabled_flag then c := !c + 1
let add c n = if !enabled_flag then c := !c + n

(** High-water-mark semantics: keep the largest value ever recorded. *)
let record_max c n = if !enabled_flag && n > !c then c := n

let value c = !c

(** Look a counter's current value up by name; 0 if never registered. *)
let counter_value name = match Hashtbl.find_opt counters name with Some c -> !c | None -> 0

(* ------------------------------------------------------------------ *)
(* Log-bucketed histograms *)

(** Bucket [i] counts samples in [[2^(i-1), 2^i)] nanoseconds (bucket 0 is
    exactly zero).  64 buckets cover the whole [int] range. *)
let num_buckets = 64

type histogram = {
  h_name : string;
  h_buckets : int array;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
}

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 64

let histogram name =
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
      let h =
        {
          h_name = name;
          h_buckets = Array.make num_buckets 0;
          h_count = 0;
          h_sum = 0;
          h_min = 0;
          h_max = 0;
        }
      in
      Hashtbl.add histograms name h;
      h

let bucket_of v =
  let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
  min (num_buckets - 1) (bits 0 v)

let observe h v =
  if !enabled_flag then begin
    let v = if v < 0 then 0 else v in
    let b = bucket_of v in
    h.h_buckets.(b) <- h.h_buckets.(b) + 1;
    if h.h_count = 0 || v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum + v
  end

(** Estimate the [q]-quantile (0 < q <= 1) from the buckets: find the
    bucket holding the rank-th sample and take its midpoint, clamped to
    the observed min/max so small sample counts stay exact. *)
let quantile h q =
  if h.h_count = 0 then 0.
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int h.h_count)) in
      if r < 1 then 1 else if r > h.h_count then h.h_count else r
    in
    let res = ref (float_of_int h.h_max) in
    let cum = ref 0 in
    (try
       for i = 0 to num_buckets - 1 do
         cum := !cum + h.h_buckets.(i);
         if !cum >= rank then begin
           let lo = if i <= 1 then 0. else Float.ldexp 1. (i - 1) in
           let hi = Float.ldexp 1. i in
           res := (lo +. hi) /. 2.;
           raise Exit
         end
       done
     with Exit -> ());
    Float.min (Float.max !res (float_of_int h.h_min)) (float_of_int h.h_max)
  end

(* ------------------------------------------------------------------ *)
(* Spans and the trace-event buffer *)

type phase = Span_begin | Span_end

type event = {
  ev_name : string;
  ev_phase : phase;
  ev_ts : int;  (** monotonic nanoseconds *)
  ev_depth : int;  (** nesting depth at emission, for sanity checks *)
}

(** Bounded trace buffer: 64k events (≈ 32k spans) between resets by
    default.  Overflow increments the dropped count so
    exporters can report the truncation instead of silently losing the
    tail.  The cap is configurable ([--trace-buffer N] in the CLI) for
    long runs that would otherwise truncate. *)
let default_max_events = 1 lsl 16

let max_events_ref = ref default_max_events
let max_events () = !max_events_ref

(* Floor of 256 keeps the growth doubling in [push_event] sound and the
   buffer big enough to hold at least a few spans. *)
let set_max_events n = max_events_ref := max 256 n

let ev_dummy = { ev_name = ""; ev_phase = Span_begin; ev_ts = 0; ev_depth = 0 }

(* The event state: the buffer, its length, the overflow count, and the
   span-nesting depth. *)
type ev_state = {
  mutable buf : event array;
  mutable len : int;
  mutable dropped : int;
  mutable depth : int;
}

let st = { buf = [||]; len = 0; dropped = 0; depth = 0 }

let push_event e =
  let max_events = max_events () in
  if st.len >= max_events then st.dropped <- st.dropped + 1
  else begin
    if st.len >= Array.length st.buf then begin
      let cap = max 256 (2 * Array.length st.buf) in
      let buf = Array.make (min cap max_events) ev_dummy in
      Array.blit st.buf 0 buf 0 st.len;
      st.buf <- buf
    end;
    st.buf.(st.len) <- e;
    st.len <- st.len + 1
  end

(** A span handle: a static name plus the histogram its durations feed. *)
type span = { s_name : string; s_hist : histogram }

let span name = { s_name = name; s_hist = histogram name }

(** Open a span: returns the start timestamp, or [-1] when the sink is
    disabled (in which case the matching [end_] is a no-op even if the
    sink was enabled in between). *)
let begin_ s =
  if not !enabled_flag then -1
  else begin
    let t = now_ns () in
    push_event { ev_name = s.s_name; ev_phase = Span_begin; ev_ts = t; ev_depth = st.depth };
    st.depth <- st.depth + 1;
    t
  end

let end_ s t0 =
  if !enabled_flag && t0 >= 0 then begin
    let t = now_ns () in
    st.depth <- max 0 (st.depth - 1);
    push_event { ev_name = s.s_name; ev_phase = Span_end; ev_ts = t; ev_depth = st.depth };
    observe s.s_hist (t - t0)
  end

let with_span s f =
  let t0 = begin_ s in
  Fun.protect ~finally:(fun () -> end_ s t0) f

let events () = Array.to_list (Array.sub st.buf 0 st.len)
let dropped_events () = st.dropped

(** Check strict begin/end nesting: every [Span_end] closes the most
    recently opened span of the same name.  Exporters and tests use this
    as the well-formedness invariant of a trace. *)
let well_formed_events evs =
  let rec go stack = function
    | [] -> stack = []
    | { ev_phase = Span_begin; ev_name; _ } :: rest -> go (ev_name :: stack) rest
    | { ev_phase = Span_end; ev_name; _ } :: rest -> (
        match stack with
        | top :: stack' when String.equal top ev_name -> go stack' rest
        | _ -> false)
  in
  go [] evs

(* ------------------------------------------------------------------ *)
(* Reset *)

(** Zero every counter, histogram, and the event buffer.  Handles held
    by instrumented modules stay valid — registries are mutated in
    place. *)
let reset () =
  Hashtbl.iter (fun _ c -> c := 0) counters;
  Hashtbl.iter
    (fun _ h ->
      Array.fill h.h_buckets 0 num_buckets 0;
      h.h_count <- 0;
      h.h_sum <- 0;
      h.h_min <- 0;
      h.h_max <- 0)
    histograms;
  st.len <- 0;
  st.dropped <- 0;
  st.depth <- 0

(* ------------------------------------------------------------------ *)
(* Snapshots and the human-readable report *)

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

let snapshot () =
  let cs =
    Hashtbl.fold (fun name c acc -> (name, !c) :: acc) counters []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let hs =
    Hashtbl.fold
      (fun name h acc ->
        {
          hs_name = name;
          hs_count = h.h_count;
          hs_sum_ns = h.h_sum;
          hs_p50 = quantile h 0.50;
          hs_p90 = quantile h 0.90;
          hs_p99 = quantile h 0.99;
        }
        :: acc)
      histograms []
    |> List.sort (fun a b -> String.compare a.hs_name b.hs_name)
  in
  { sn_counters = cs; sn_spans = hs; sn_events = events (); sn_dropped = dropped_events () }

let format_ns ns =
  if ns < 1e3 then Printf.sprintf "%.0fns" ns
  else if ns < 1e6 then Printf.sprintf "%.1fus" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.2fms" (ns /. 1e6)
  else Printf.sprintf "%.2fs" (ns /. 1e9)

(** The per-phase timing/counter table printed by [argus --profile].
    Every registered span and counter appears, including never-hit ones —
    a 0 row is information (that phase did not run), not noise. *)
let report_to_string ?(title = "telemetry report") sn =
  let b = Buffer.create 1024 in
  let rule = String.make 66 '-' in
  Buffer.add_string b (Printf.sprintf "-- %s %s\n" title (String.make (max 0 (62 - String.length title)) '-'));
  Buffer.add_string b
    (Printf.sprintf "%-34s %7s %10s %10s %10s %10s\n" "span" "count" "total" "p50" "p90" "p99");
  List.iter
    (fun h ->
      if h.hs_count = 0 then
        Buffer.add_string b (Printf.sprintf "%-34s %7d %10s %10s %10s %10s\n" h.hs_name 0 "-" "-" "-" "-")
      else
        Buffer.add_string b
          (Printf.sprintf "%-34s %7d %10s %10s %10s %10s\n" h.hs_name h.hs_count
             (format_ns (float_of_int h.hs_sum_ns))
             (format_ns h.hs_p50) (format_ns h.hs_p90) (format_ns h.hs_p99)))
    sn.sn_spans;
  Buffer.add_string b (rule ^ "\n");
  Buffer.add_string b (Printf.sprintf "%-34s %10s\n" "counter" "value");
  List.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf "%-34s %10d\n" name v))
    sn.sn_counters;
  Buffer.add_string b
    (Printf.sprintf "%d trace events buffered, %d dropped (buffer cap %d)\n"
       (List.length sn.sn_events) sn.sn_dropped (max_events ()));
  if sn.sn_dropped > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "WARNING: %d trace events dropped at the buffer cap; re-run with a larger --trace-buffer\n"
         sn.sn_dropped);
  Buffer.contents b

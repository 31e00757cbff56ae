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
    - {b domain-safe}: counters are atomic, histograms take a
      per-histogram mutex (enabled path only), and span/trace events
      accumulate in {e per-domain} buffers that a worker flushes into the
      merged trace with {!flush_domain_events} — so serve sessions on
      pool workers record race-free without contending on every event.

    The JSON exporter lives in {!Argus_json.Telemetry_export} (it needs the
    JSON library, which sits above this one in the dependency order). *)

(* ------------------------------------------------------------------ *)
(* The global sink toggle *)

(* Atomic rather than a plain ref: worker domains must observe toggles
   made by the main domain between batches (e.g. the bench enabling
   telemetry for one counted run against a live pool). *)
let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false

(** Monotonic nanoseconds.  [int] holds ±292 years of nanoseconds on
    64-bit platforms, and unlike [Int64.t] it never boxes. *)
let now_ns () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())

(* Registration is rare (module init, mostly on the main domain before
   workers spawn), so one mutex over both registries suffices. *)
let registry_mutex = Mutex.create ()

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* ------------------------------------------------------------------ *)
(* Counters *)

type counter = { c_name : string; c_value : int Atomic.t }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name =
  with_lock registry_mutex (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
          let c = { c_name = name; c_value = Atomic.make 0 } in
          Hashtbl.add counters name c;
          c)

let incr c = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.c_value 1)
let add c n = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.c_value n)

(** High-water-mark semantics: keep the largest value ever recorded. *)
let record_max c n =
  if Atomic.get enabled_flag then begin
    let rec loop () =
      let cur = Atomic.get c.c_value in
      if n > cur && not (Atomic.compare_and_set c.c_value cur n) then loop ()
    in
    loop ()
  end

let value c = Atomic.get c.c_value

(** Look a counter's current value up by name; 0 if never registered. *)
let counter_value name =
  match
    with_lock registry_mutex (fun () -> Hashtbl.find_opt counters name)
  with
  | Some c -> Atomic.get c.c_value
  | None -> 0

(* ------------------------------------------------------------------ *)
(* Log-bucketed histograms *)

(** Bucket [i] counts samples in [[2^(i-1), 2^i)] nanoseconds (bucket 0 is
    exactly zero).  64 buckets cover the whole [int] range. *)
let num_buckets = 64

type histogram = {
  h_name : string;
  h_mutex : Mutex.t;  (** guards every mutable field; enabled path only *)
  h_buckets : int array;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
}

let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 64

let histogram name =
  with_lock registry_mutex (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
          let h =
            {
              h_name = name;
              h_mutex = Mutex.create ();
              h_buckets = Array.make num_buckets 0;
              h_count = 0;
              h_sum = 0;
              h_min = 0;
              h_max = 0;
            }
          in
          Hashtbl.add histograms name h;
          h)

let bucket_of v =
  let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
  min (num_buckets - 1) (bits 0 v)

let observe h v =
  if Atomic.get enabled_flag then begin
    let v = if v < 0 then 0 else v in
    let b = bucket_of v in
    with_lock h.h_mutex (fun () ->
        h.h_buckets.(b) <- h.h_buckets.(b) + 1;
        if h.h_count = 0 || v < h.h_min then h.h_min <- v;
        if v > h.h_max then h.h_max <- v;
        h.h_count <- h.h_count + 1;
        h.h_sum <- h.h_sum + v)
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

(** Bounded trace buffer: 64k events (≈ 32k spans) per domain between
    flushes by default.  Overflow increments the dropped count so
    exporters can report the truncation instead of silently losing the
    tail.  The cap is configurable ([--trace-buffer N] in the CLI) for
    long runs that would otherwise truncate. *)
let default_max_events = 1 lsl 16

let max_events_ref = Atomic.make default_max_events
let max_events () = Atomic.get max_events_ref

(* Floor of 256 keeps the growth doubling in [push_event] sound and the
   buffer big enough to hold at least a few spans. *)
let set_max_events n = Atomic.set max_events_ref (max 256 n)

let ev_dummy = { ev_name = ""; ev_phase = Span_begin; ev_ts = 0; ev_depth = 0 }

(* Per-domain event state: the buffer, its length, the overflow count,
   and the span-nesting depth.  Workers record locally (no locks on the
   recording path) and publish with [flush_domain_events]. *)
type ev_state = {
  mutable buf : event array;
  mutable len : int;
  mutable dropped : int;
  mutable depth : int;
}

let ev_key : ev_state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { buf = [||]; len = 0; dropped = 0; depth = 0 })

let ev_state () = Domain.DLS.get ev_key

(* Flushed per-domain segments, oldest flush first.  Each segment is
   internally well-formed (balanced begin/end), so the concatenation the
   exporters see respects the stack discipline too. *)
let merged_segments : event list list ref = ref []
let merged_dropped = ref 0
let merge_mutex = Mutex.create ()

let push_event st e =
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
  if not (Atomic.get enabled_flag) then -1
  else begin
    let st = ev_state () in
    let t = now_ns () in
    push_event st { ev_name = s.s_name; ev_phase = Span_begin; ev_ts = t; ev_depth = st.depth };
    st.depth <- st.depth + 1;
    t
  end

let end_ s t0 =
  if Atomic.get enabled_flag && t0 >= 0 then begin
    let st = ev_state () in
    let t = now_ns () in
    st.depth <- max 0 (st.depth - 1);
    push_event st { ev_name = s.s_name; ev_phase = Span_end; ev_ts = t; ev_depth = st.depth };
    observe s.s_hist (t - t0)
  end

let with_span s f =
  let t0 = begin_ s in
  Fun.protect ~finally:(fun () -> end_ s t0) f

let local_events st = Array.to_list (Array.sub st.buf 0 st.len)

(** Publish the calling domain's buffered events into the merged trace
    and clear the local buffer.  Worker domains call this after each
    task (the pool does it for them); the main domain's unflushed buffer
    is always visible through {!events}, so single-domain runs never
    need to flush. *)
let flush_domain_events () =
  let st = ev_state () in
  if st.len > 0 || st.dropped > 0 then begin
    let seg = local_events st in
    let dropped = st.dropped in
    st.len <- 0;
    st.dropped <- 0;
    with_lock merge_mutex (fun () ->
        if seg <> [] then merged_segments := !merged_segments @ [ seg ];
        merged_dropped := !merged_dropped + dropped)
  end

let events () =
  let merged = with_lock merge_mutex (fun () -> List.concat !merged_segments) in
  merged @ local_events (ev_state ())

let dropped_events () =
  with_lock merge_mutex (fun () -> !merged_dropped) + (ev_state ()).dropped

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

(** Zero every counter, histogram, the merged trace, and the calling
    domain's event buffer.  Handles held by instrumented modules stay
    valid — registries are mutated in place.  Worker domains flush after
    every task, so between batches their local buffers are already
    empty; a reset from the main domain therefore clears everything. *)
let reset () =
  with_lock registry_mutex (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.c_value 0) counters;
      Hashtbl.iter
        (fun _ h ->
          with_lock h.h_mutex (fun () ->
              Array.fill h.h_buckets 0 num_buckets 0;
              h.h_count <- 0;
              h.h_sum <- 0;
              h.h_min <- 0;
              h.h_max <- 0))
        histograms);
  with_lock merge_mutex (fun () ->
      merged_segments := [];
      merged_dropped := 0);
  let st = ev_state () in
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
  let cs, hs =
    with_lock registry_mutex (fun () ->
        let cs =
          Hashtbl.fold (fun name c acc -> (name, Atomic.get c.c_value) :: acc) counters []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        in
        let hs =
          Hashtbl.fold
            (fun name h acc ->
              with_lock h.h_mutex (fun () ->
                  {
                    hs_name = name;
                    hs_count = h.h_count;
                    hs_sum_ns = h.h_sum;
                    hs_p50 = quantile h 0.50;
                    hs_p90 = quantile h 0.90;
                    hs_p99 = quantile h 0.99;
                  })
              :: acc)
            histograms []
          |> List.sort (fun a b -> String.compare a.hs_name b.hs_name)
        in
        (cs, hs))
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
    (Printf.sprintf "%d trace events buffered, %d dropped (buffer cap %d per domain)\n"
       (List.length sn.sn_events) sn.sn_dropped (max_events ()));
  if sn.sn_dropped > 0 then
    Buffer.add_string b
      (Printf.sprintf
         "WARNING: %d trace events dropped at the buffer cap; re-run with a larger --trace-buffer\n"
         sn.sn_dropped);
  Buffer.contents b

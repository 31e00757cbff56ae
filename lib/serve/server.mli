(** The [argus serve] daemon core: a method registry over per-client
    logical sessions, speaking newline-delimited JSON-RPC 2.0
    ({!Argus_json.Rpc}).  Transport (stdio / Unix socket / TCP) lives in
    the CLI; this module is transport-free so the conformance tests, the
    fuzz oracle, and the load generator drive it in-process.

    {b Verbs} (see docs/SERVE.md for the wire schema):
    - [open]: create a named session from source text or a file path
      (parse only; no solve yet);
    - [reload]: swap in an edited version and report [noop]: an
      unchanged source re-uses the loaded program;
    - [solve]: resolve and render the [argus check] report (recording
      the search journal for [explain]/[profile]);
    - [tree]: the fully-expanded proof-tree page per failing goal
      ([argus bottom-up] / [top-down] output);
    - [expand] / [hover]: view-state-machine interactions over a failing
      goal's view, addressed by display row;
    - [explain]: the journal narrative ([argus explain] output);
    - [profile]: the per-goal cost table ([argus profile] on the
      journal);
    - [shutdown]: stop accepting work (later requests get error
      [-32003]).

    {b Determinism contract}: one session's response stream is a pure
    function of its request stream — a [solve] records a journal and so
    never consults the eval cache, and journal/snapshot counters are
    reset per solve.  So
    [solve]/[tree]/[explain] payloads are byte-identical to the
    equivalent one-shot CLI run, however many sessions interleave. *)

type t

(** [create ()] — an empty server with no sessions.  [cfg] is the solver
    configuration every session solves under. *)
val create : ?cfg:Solver.Solve.config -> unit -> t

(** Has [shutdown] been received?  Transports use this to stop their
    accept/read loop after draining the current request. *)
val shutting_down : t -> bool

(** Handle one request line.  [None] means no response is due (the line
    was a notification — a request without an [id]).  Never raises:
    malformed lines produce JSON-RPC error responses. *)
val handle_line : t -> string -> string option

(** Handle a batch of [(client, line)] requests on the calling domain:
    requests are grouped by client, the groups run in the order each
    client first appears, each client's requests in their own order, and
    results return in input order.  [pool] is ignored; it stays only
    for callers that still pass one. *)
val handle_batch :
  ?pool:Pool.t -> t -> (int * string) list -> (int * string option) list

(** The JSON payload of an [expand]/[hover] response for a given view
    state — exposed so tests and the fuzz oracle can build reference
    payloads from an independently-driven {!Argus.View_state}. *)
val view_json : goal:int -> Argus.View_state.t -> Argus_json.Json.t

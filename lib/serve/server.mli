(** The [argus serve] daemon core: a method registry over per-client
    logical sessions, speaking newline-delimited JSON-RPC 2.0
    ({!Argus_json.Rpc}).  Transport (stdio / Unix socket / TCP) lives in
    the CLI; this module is transport-free so the conformance tests, the
    fuzz oracle, and the load generator drive it in-process.

    {b Verbs} (see docs/SERVE.md for the wire schema):
    - [open]: create a named session from source text or a file path
      (parse + {!Solver.Session.edit}; no solve yet);
    - [reload]: swap in an edited version ({!Solver.Session.edit}, which
      evicts the previous version's cache entries when the program
      stamp changes) and report [noop]: an unchanged source re-uses the
      loaded program, a stamp-equal no-op that evicts nothing;
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
    function of its request stream — the interner is shared across
    sessions and requests, but a [solve] records a journal and so never
    consults the eval cache, and journal/snapshot counters are
    domain-local and reset per solve.  So
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

(** Handle a batch of [(client, line)] requests concurrently on the
    domain pool: requests are grouped by client, each client's group
    runs in order on one worker (per-session serialization), and results
    return in input order.  Without [pool] the groups run in order on
    the calling domain. *)
val handle_batch :
  ?pool:Pool.t -> t -> (int * string) list -> (int * string option) list

(** The JSON payload of an [expand]/[hover] response for a given view
    state — exposed so tests and the fuzz oracle can build reference
    payloads from an independently-driven {!Argus.View_state}. *)
val view_json : goal:int -> Argus.View_state.t -> Argus_json.Json.t

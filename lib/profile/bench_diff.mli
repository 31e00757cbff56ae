(** The standing perf-regression gate: compare two [BENCH_pipeline.json]
    documents metric by metric.

    Every timing metric in every section (pipeline entries, journal
    overhead, cache on/off, fuzz throughput, scale, serve, DNF)
    is matched by key between the two files and judged by its new/old
    ratio against two configurable thresholds: [warn_above] flags
    drift, [fail_above] is a regression.  A bootstrap confidence interval over all ratios
    ({!Stats.Ci}) separates one noisy metric from a systemic slowdown:
    if even the CI's lower bound sits above the warn threshold, the
    whole run drifted.  [bench --diff OLD NEW] prints {!to_string} and
    exits with {!exit_code} — nonzero on regression, so CI can gate. *)

type row = {
  r_section : string;  (** e.g. ["entries"], ["cache"] *)
  r_name : string;  (** entry key within the section *)
  r_metric : string;  (** e.g. ["ns_per_run"] *)
  r_old : float;
  r_new : float;
  r_ratio : float;  (** new / old *)
}

type verdict = Pass | Drift | Regression

type report = {
  rows : row list;  (** every compared metric, worst ratio first *)
  regressions : row list;  (** ratio >= fail threshold *)
  drifts : row list;  (** warn <= ratio < fail *)
  improvements : row list;  (** ratio <= 1 / warn threshold *)
  missing : string list;  (** metrics in OLD absent from NEW *)
  added : string list;  (** metrics in NEW absent from OLD *)
  median_ratio : float;
  ratio_ci : Stats.Ci.interval option;
      (** 95% bootstrap CI of the median ratio; [None] under 4 rows *)
  systemic_drift : bool;  (** [ratio_ci.lo > warn_above] *)
  warn_above : float;
  fail_above : float;
  verdict : verdict;
}

val default_warn : float  (** 1.25 *)

val default_fail : float  (** 2.0 *)

(** Compare two parsed [BENCH_pipeline.json] documents.
    @raise Invalid_argument when either document does not carry an
    [argus.bench.pipeline/*] schema tag *)
val diff : ?warn_above:float -> ?fail_above:float -> old_doc:Argus_json.Json.t -> new_doc:Argus_json.Json.t -> unit -> report

(** The human-readable gate report: offending rows, the ratio CI, and
    the verdict line. *)
val to_string : report -> string

(** [1] on [Regression], [0] otherwise ([Drift] warns but passes). *)
val exit_code : report -> int

(** Metric-by-metric comparison of two [BENCH_pipeline.json] files — the
    perf-regression gate behind [bench --diff] and the CI step. *)

module Json = Argus_json.Json

type row = {
  r_section : string;
  r_name : string;
  r_metric : string;
  r_old : float;
  r_new : float;
  r_ratio : float;
}

type verdict = Pass | Drift | Regression

type report = {
  rows : row list;
  regressions : row list;
  drifts : row list;
  improvements : row list;
  missing : string list;
  added : string list;
  median_ratio : float;
  ratio_ci : Stats.Ci.interval option;
  systemic_drift : bool;
  warn_above : float;
  fail_above : float;
  verdict : verdict;
}

let default_warn = 1.25
let default_fail = 2.0

(* Which metrics of which sections the gate watches: (section, key
   field, timing metrics).  Keys identify an entry within its section. *)
let sections =
  [
    ("entries", "name", [ "ns_per_run" ]);
    ("journal", "name", [ "ns_disabled"; "ns_enabled" ]);
    ("cache", "name", [ "ns_cache_off"; "ns_cache_on" ]);
    ("fuzz", "stage", [ "ns_per_program" ]);
    (* absent from pre-v6 baselines: missing sections only surface as
       "added in NEW", never as a failure.  v9 folded the on/off pair
       into one [ns_per_goal], which surfaces the same way against an
       older baseline. *)
    ("scale", "impls", [ "ns_per_goal"; "parse_ns_per_kb"; "lower_ns_per_kb" ]);
    (* absent from pre-v8 baselines, tolerated the same way *)
    ("serve", "name", [ "p50_ns"; "p99_ns" ]);
    (* absent from pre-v11 baselines, tolerated the same way *)
    ("dnf", "tree", [ "ns" ]);
  ]

let number_opt = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let key_string = function
  | Some (Json.String s) -> Some s
  | Some (Json.Int i) -> Some (string_of_int i)
  | _ -> None

let check_schema which doc =
  let prefix = "argus.bench.pipeline/" in
  match Json.member "schema" doc with
  | Some (Json.String s)
    when String.length s >= String.length prefix
         && String.sub s 0 (String.length prefix) = prefix ->
      ()
  | _ ->
      invalid_arg
        (Printf.sprintf "%s file does not carry an %s* schema tag" which prefix)

(** Flatten one document into ("section/name/metric", value) pairs. *)
let metrics doc =
  List.concat_map
    (fun (section, key_field, metric_names) ->
      match Json.member section doc with
      | Some (Json.List items) ->
          List.concat_map
            (fun item ->
              match key_string (Json.member key_field item) with
              | None -> []
              | Some name ->
                  List.filter_map
                    (fun metric ->
                      match number_opt (Json.member metric item) with
                      | Some v -> Some ((section, name, metric), v)
                      | None -> None)
                    metric_names)
            items
      | _ -> [])
    sections

let id_string (section, name, metric) = section ^ "/" ^ name ^ "/" ^ metric

let diff ?(warn_above = default_warn) ?(fail_above = default_fail) ~old_doc ~new_doc
    () =
  check_schema "OLD" old_doc;
  check_schema "NEW" new_doc;
  let old_metrics = metrics old_doc and new_metrics = metrics new_doc in
  let new_tbl = Hashtbl.create 128 in
  List.iter (fun (k, v) -> Hashtbl.replace new_tbl k v) new_metrics;
  let old_tbl = Hashtbl.create 128 in
  List.iter (fun (k, v) -> Hashtbl.replace old_tbl k v) old_metrics;
  let missing =
    List.filter_map
      (fun (k, _) -> if Hashtbl.mem new_tbl k then None else Some (id_string k))
      old_metrics
  in
  let added =
    List.filter_map
      (fun (k, _) -> if Hashtbl.mem old_tbl k then None else Some (id_string k))
      new_metrics
  in
  let rows =
    List.filter_map
      (fun ((section, name, metric) as k, old_v) ->
        match Hashtbl.find_opt new_tbl k with
        | Some new_v when old_v > 0.0 ->
            Some
              {
                r_section = section;
                r_name = name;
                r_metric = metric;
                r_old = old_v;
                r_new = new_v;
                r_ratio = new_v /. old_v;
              }
        | _ -> None)
      old_metrics
    |> List.sort (fun a b -> compare b.r_ratio a.r_ratio)
  in
  let regressions = List.filter (fun r -> r.r_ratio >= fail_above) rows in
  let drifts =
    List.filter (fun r -> r.r_ratio >= warn_above && r.r_ratio < fail_above) rows
  in
  let improvements = List.filter (fun r -> r.r_ratio <= 1.0 /. warn_above) rows in
  let ratios = List.map (fun r -> r.r_ratio) rows in
  let median_ratio = if ratios = [] then 1.0 else Stats.Descriptive.median ratios in
  let ratio_ci =
    if List.length ratios >= 4 then
      Some
        (Stats.Ci.bootstrap ~rng:(Stats.Rng.create ~seed:42) Stats.Descriptive.median
           ratios)
    else None
  in
  let systemic_drift =
    match ratio_ci with Some ci -> ci.Stats.Ci.lo > warn_above | None -> false
  in
  let verdict =
    if regressions <> [] then Regression
    else if drifts <> [] || systemic_drift then Drift
    else Pass
  in
  {
    rows;
    regressions;
    drifts;
    improvements;
    missing;
    added;
    median_ratio;
    ratio_ci;
    systemic_drift;
    warn_above;
    fail_above;
    verdict;
  }

let fmt_ns ns = Telemetry.format_ns ns

let row_line tag r =
  Printf.sprintf "  %-10s %-42s %10s -> %10s  %6.2fx\n" tag
    (Printf.sprintf "%s/%s/%s" r.r_section r.r_name r.r_metric)
    (fmt_ns r.r_old) (fmt_ns r.r_new) r.r_ratio

let to_string rep =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf
       "bench diff: %d metrics compared (warn at %.2fx, fail at %.2fx)\n"
       (List.length rep.rows) rep.warn_above rep.fail_above);
  (match rep.ratio_ci with
  | Some ci ->
      Buffer.add_string b
        (Printf.sprintf "  median ratio %.3fx [95%% CI %.3f .. %.3f]%s\n"
           rep.median_ratio ci.Stats.Ci.lo ci.Stats.Ci.hi
           (if rep.systemic_drift then "  <- systemic drift" else ""))
  | None ->
      Buffer.add_string b (Printf.sprintf "  median ratio %.3fx\n" rep.median_ratio));
  List.iter (fun r -> Buffer.add_string b (row_line "REGRESSED" r)) rep.regressions;
  List.iter (fun r -> Buffer.add_string b (row_line "drift" r)) rep.drifts;
  List.iter (fun r -> Buffer.add_string b (row_line "improved" r)) rep.improvements;
  List.iter
    (fun m -> Buffer.add_string b (Printf.sprintf "  missing in NEW: %s\n" m))
    rep.missing;
  List.iter
    (fun m -> Buffer.add_string b (Printf.sprintf "  added in NEW:   %s\n" m))
    rep.added;
  Buffer.add_string b
    (match rep.verdict with
    | Pass -> "verdict: PASS\n"
    | Drift -> "verdict: DRIFT (warn only)\n"
    | Regression ->
        Printf.sprintf "verdict: REGRESSION (%d metric(s) at or above %.2fx)\n"
          (List.length rep.regressions) rep.fail_above);
  Buffer.contents b

let exit_code rep = match rep.verdict with Regression -> 1 | Drift | Pass -> 0

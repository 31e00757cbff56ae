(* perfbench: the end-to-end benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--spans-out FILE]

   Prints a table of every metric with its unit on stderr and, as the
   last line of stdout, one JSON object with the keys correct,
   attempted, failed and metrics.  [--workload all] runs every workload
   in turn.  A traced run also writes its spans, one JSON object per
   line, to FILE (default .perfbench/spans-WORKLOAD-seedN.jsonl). *)

open Perfbench

let usage () =
  prerr_endline
    ("usage: main.exe --workload NAME|all --seed N --seconds S --trace 0|1 [--spans-out FILE]\n\
      workloads: "
    ^ String.concat ", " (List.map Workload.name Workloads.all));
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let spans_out = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := (int_of_string v <> 0); parse rest
    | "--spans-out" :: v :: rest -> spans_out := Some v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let selected =
    if !workload = "all" then Workloads.all
    else match Workloads.find !workload with Some w -> [ w ] | None -> usage ()
  in
  List.iter
    (fun w ->
      let spans_out =
        match !spans_out with
        | Some p -> p
        | None -> Printf.sprintf ".perfbench/spans-%s-seed%d.jsonl" (Workload.name w) !seed
      in
      let r = Runner.run ~spans_out ~seed:!seed ~seconds:!seconds ~trace:!trace w in
      prerr_string (Runner.to_table r);
      print_endline (Runner.to_json r))
    selected

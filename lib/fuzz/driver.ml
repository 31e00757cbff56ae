(** Campaign driver (see the interface). *)

let c_iters = Telemetry.counter "fuzz.iters"
let c_checks = Telemetry.counter "fuzz.checks"
let c_counterexamples = Telemetry.counter "fuzz.counterexamples"
let c_shrink_steps = Telemetry.counter "fuzz.shrink.steps"
let c_shrink_checks = Telemetry.counter "fuzz.shrink.checks"

type counterexample = {
  cx_iter : int;
  cx_oracle : Oracle.name;
  cx_message : string;
  cx_decls : int;
  cx_source : string;
  cx_file : string option;
}

type outcome = {
  o_iters : int;
  o_checks : int;
  o_counterexample : counterexample option;
}

let repro_contents ~seed ~iter ~oracle ~message ~source =
  Printf.sprintf
    "// argus fuzz counterexample\n\
     // seed %d iter %d oracle %s\n\
     // %s\n\
     // replay: argus fuzz --replay <this file> --oracle %s\n\
     %s"
    seed iter (Oracle.to_string oracle) message (Oracle.to_string oracle) source

let write_repro ~out_dir ~seed ~iter ~oracle ~message ~source =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let file =
    Filename.concat out_dir
      (Printf.sprintf "fuzz-%d-%d-%s.trait" seed iter (Oracle.to_string oracle))
  in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (repro_contents ~seed ~iter ~oracle ~message ~source));
  file

(* Count declarations of a source text by re-loading it — the shrunk
   program is reported by its surface size. *)
let decls_of_source source =
  match Oracle.load source with
  | Ok p -> Trait_lang.Program.decl_count p + List.length (Trait_lang.Program.goals p)
  | Error _ | (exception _) -> 0

let run ?out_dir ?(shrink = true) ?(size = Gen.default_size)
    ?(progress = fun _ -> ()) ~oracles ~iters ~seed () : outcome =
  let checks = ref 0 in
  let found = ref None in
  let i = ref 0 in
  while !found = None && !i < iters do
    let iter = !i in
    let spec = Gen.generate ~seed ~iter ~size in
    let source = Gen.render spec in
    Telemetry.incr c_iters;
    let rec try_oracles = function
      | [] -> ()
      | name :: rest -> begin
          incr checks;
          Telemetry.incr c_checks;
          match Oracle.check name ~source with
          | Oracle.Pass -> try_oracles rest
          | Oracle.Fail message ->
              Telemetry.incr c_counterexamples;
              let kind = Oracle.fail_kind message in
              let final_source =
                if shrink then begin
                  let r =
                    Shrink.run
                      ~check:(fun src ->
                        Telemetry.incr c_shrink_checks;
                        Oracle.check name ~source:src)
                      ~kind spec
                  in
                  checks := !checks + r.checks;
                  Telemetry.add c_shrink_steps r.steps;
                  Gen.render r.minimized
                end
                else source
              in
              let file =
                Option.map
                  (fun dir ->
                    write_repro ~out_dir:dir ~seed ~iter ~oracle:name ~message
                      ~source:final_source)
                  out_dir
              in
              found :=
                Some
                  {
                    cx_iter = iter;
                    cx_oracle = name;
                    cx_message = message;
                    cx_decls = decls_of_source final_source;
                    cx_source = final_source;
                    cx_file = file;
                  }
        end
    in
    try_oracles oracles;
    incr i;
    if !i mod 50 = 0 && !found = None then
      progress
        (Printf.sprintf "fuzz: %d/%d iterations, %d oracle checks, 0 counterexamples"
           !i iters !checks)
  done;
  { o_iters = !i; o_checks = !checks; o_counterexample = !found }

let replay ~oracles ~path () =
  let source = In_channel.with_open_bin path In_channel.input_all in
  List.map (fun name -> (name, Oracle.check name ~source)) oracles

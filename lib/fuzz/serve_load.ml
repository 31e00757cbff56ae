module Json = Argus_json.Json
module Rpc = Argus_json.Rpc

type stats = {
  ls_clients : int;
  ls_requests : int;
  ls_errors : int;
  ls_wall_ns : int;
  ls_throughput_rps : float;
  ls_p50_ns : int;
  ls_p99_ns : int;
  ls_cache_lookups : int;
}

let line ~id m params =
  Rpc.request_to_line
    {
      Rpc.rpc_id = Some (Rpc.Int_id id);
      rpc_method = m;
      rpc_params = Some (Json.Obj params);
    }

(* Issue one request, clock it, and classify the response. *)
let request server latencies errors l =
  let t0 = Telemetry.now_ns () in
  let resp = Serve.Server.handle_line server l in
  let t1 = Telemetry.now_ns () in
  latencies := (t1 - t0) :: !latencies;
  match resp with
  | None -> None
  | Some r -> (
      match Rpc.response_of_line r with
      | Ok { Rpc.resp_result = Ok v; _ } -> Some v
      | Ok { Rpc.resp_result = Error _; _ } | Error _ ->
          incr errors;
          None)

let cache_lookups () =
  List.fold_left
    (fun acc name -> acc + Telemetry.counter_value name)
    0
    [ "cache.tree.hits"; "cache.tree.misses" ]

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(min (n - 1) (n * p / 100))

let run ?(programs = 8) ~clients ~seed () =
  if programs < 1 then invalid_arg "Serve_load.run: programs must be >= 1";
  if clients < 1 then invalid_arg "Serve_load.run: clients must be >= 1";
  (* The program pool: a handful of seeded generated programs plus a
     1-step-edited variant of each (the reload payload). *)
  let sources =
    List.init programs (fun i -> Gen.render (Gen.generate ~seed ~iter:i ~size:1))
  in
  let edited =
    List.map
      (fun src ->
        match
          Trait_lang.Resolve.program_of_string ~file:"<serve-load>" src
        with
        | exception _ -> src
        | program -> (
            match Edit.script ~seed ~steps:1 program with
            | [] -> src
            | script -> Printer.program (snd (List.nth script (List.length script - 1)))))
      sources
  in
  let sources = Array.of_list sources and edited = Array.of_list edited in
  let server = Serve.Server.create () in
  let was_enabled = Telemetry.enabled () in
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () -> if not was_enabled then Telemetry.disable ())
    (fun () ->
      let t_start = Telemetry.now_ns () in
      let lookups0 = cache_lookups () in
      (* cold phase: open + solve per client *)
      let cold_results =
        List.map
          (fun c ->
            let p = (seed + c) mod programs in
            let session = Printf.sprintf "c%d" c in
            let latencies = ref [] and errors = ref 0 in
            ignore
              (request server latencies errors
                 (line ~id:1 "open"
                    [
                      ("session", Json.String session);
                      ("source", Json.String sources.(p));
                    ]));
            let solved =
              request server latencies errors
                (line ~id:2 "solve" [ ("session", Json.String session) ])
            in
            let failing =
              match Option.bind solved (Json.member "issues") with
              | Some (Json.Int n) -> n > 0
              | _ -> false
            in
            (c, failing, !latencies, !errors))
          (List.init clients Fun.id)
      in
      (* warm phase: read-only exploration, then an edited reload +
         re-solve *)
      let warm_results =
        List.map
          (fun (c, failing, _, _) ->
            let p = (seed + c) mod programs in
            let session = Printf.sprintf "c%d" c in
            let latencies = ref [] and errors = ref 0 in
            let req id m params =
              ignore
                (request server latencies errors
                   (line ~id m (("session", Json.String session) :: params)))
            in
            req 3 "tree" [];
            if failing then begin
              req 4 "expand" [ ("row", Json.Int 0) ];
              req 5 "hover" [ ("row", Json.Int 0) ]
            end;
            req 6 "explain" [ ("failures", Json.Bool true) ];
            req 7 "reload" [ ("source", Json.String edited.(p)) ];
            req 8 "solve" [];
            (!latencies, !errors))
          cold_results
      in
      let lookups = cache_lookups () - lookups0 in
      let t_end = Telemetry.now_ns () in
      let latencies =
        List.concat_map (fun (_, _, ls, _) -> ls) cold_results
        @ List.concat_map fst warm_results
      in
      let errors =
        List.fold_left (fun a (_, _, _, e) -> a + e) 0 cold_results
        + List.fold_left (fun a (_, e) -> a + e) 0 warm_results
      in
      let sorted = Array.of_list latencies in
      Array.sort compare sorted;
      let requests = Array.length sorted in
      let wall_ns = max 1 (t_end - t_start) in
      {
        ls_clients = clients;
        ls_requests = requests;
        ls_errors = errors;
        ls_wall_ns = wall_ns;
        ls_throughput_rps =
          float_of_int requests /. (float_of_int wall_ns /. 1e9);
        ls_p50_ns = percentile sorted 50;
        ls_p99_ns = percentile sorted 99;
        ls_cache_lookups = lookups;
      })

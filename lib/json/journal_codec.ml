(** JSONL wire format for the solver search {!Journal} — schema
    [argus.journal/v2].

    A journal file is one JSON object per line: a header line naming the
    schema, then one line per event entry.  The codec round-trips every
    payload (full-fidelity spans, unlike {!Encode.span} which keeps only
    the start line), so [argus explain] can reconstruct the search from
    the file alone. *)

open Trait_lang

let schema = "argus.journal/v2"

type error = Decode.error = { path : string; message : string }

let fail path message = raise (Decode.Decode_error { path; message })

let field path key j =
  match Json.member key j with
  | Some v -> v
  | None -> fail path (Printf.sprintf "missing field %S" key)

let str path = function Json.String s -> s | _ -> fail path "expected a string"
let int_ path = function Json.Int i -> i | _ -> fail path "expected an integer"
let bool_ path = function Json.Bool b -> b | _ -> fail path "expected a boolean"

(* A type-system payload in field [key], decoded with its own path so an
   error inside it names the line and field it sits in. *)
let payload (decode : ?path:string -> Json.t -> 'a) path key j =
  decode ~path:(path ^ "." ^ key) (field path key j)

let opt f path = function Json.Null -> None | j -> Some (f path j)

let int_opt path j = opt int_ path j

(* --- spans (full fidelity, unlike Encode.span) ---------------------- *)

let span_to_json (s : Span.t) : Json.t =
  if Span.is_dummy s then Json.Null
  else
    Json.Obj
      [
        ("file", Json.String s.Span.file);
        ("start_line", Json.Int s.Span.start.Span.line);
        ("start_col", Json.Int s.Span.start.Span.col);
        ("stop_line", Json.Int s.Span.stop.Span.line);
        ("stop_col", Json.Int s.Span.stop.Span.col);
      ]

let span_of_json path = function
  | Json.Null -> Span.dummy
  | j ->
      Span.v
        ~file:(str (path ^ ".file") (field path "file" j))
        ~start_line:(int_ (path ^ ".start_line") (field path "start_line" j))
        ~start_col:(int_ (path ^ ".start_col") (field path "start_col" j))
        ~stop_line:(int_ (path ^ ".stop_line") (field path "stop_line" j))
        ~stop_col:(int_ (path ^ ".stop_col") (field path "stop_col" j))

(* --- payload codecs ------------------------------------------------- *)

let res_to_json r = Json.String (Journal.Res.to_string r)

let res_of_json path j : Journal.Res.t =
  match str path j with
  | "yes" -> Yes
  | "maybe" -> Maybe
  | "no" -> No
  | s -> fail path ("unknown result " ^ s)

let flag_to_json (f : Journal.flag) : Json.t = Json.String (Journal.flag_to_string f)

let flag_of_json path j : Journal.flag =
  match str path j with
  | "overflow" -> Journal.Overflow
  | "depth-limit" -> Journal.Depth_limit
  | "stateful" -> Journal.Stateful
  | "speculative" -> Journal.Speculative
  | "ambiguous-selection" -> Journal.Ambiguous_selection
  | s -> fail path ("unknown flag " ^ s)

let flags_to_json fs = Json.List (List.map flag_to_json fs)

let flags_of_json path = function
  | Json.List xs -> List.map (flag_of_json (path ^ "[]")) xs
  | _ -> fail path "expected a list of flags"

let prov_to_json : Journal.prov -> Json.t = function
  | Journal.Root { origin; span } ->
      Json.Obj
        [ ("p", Json.String "root"); ("origin", Json.String origin); ("span", span_to_json span) ]
  | Journal.Impl_where { impl_id; clause_idx } ->
      Json.Obj
        [
          ("p", Json.String "impl_where");
          ("impl_id", Json.Int impl_id);
          ("clause_idx", Json.Int clause_idx);
        ]
  | Journal.Param_env i -> Json.Obj [ ("p", Json.String "param_env"); ("index", Json.Int i) ]
  | Journal.Supertrait tr ->
      Json.Obj [ ("p", Json.String "supertrait"); ("trait", Encode.path tr) ]
  | Journal.Builtin_req what ->
      Json.Obj [ ("p", Json.String "builtin_req"); ("what", Json.String what) ]
  | Journal.Normalization -> Json.Obj [ ("p", Json.String "normalization") ]

let prov_of_json path j : Journal.prov =
  match str (path ^ ".p") (field path "p" j) with
  | "root" ->
      Journal.Root
        {
          origin = str (path ^ ".origin") (field path "origin" j);
          span = span_of_json (path ^ ".span") (field path "span" j);
        }
  | "impl_where" ->
      Journal.Impl_where
        {
          impl_id = int_ (path ^ ".impl_id") (field path "impl_id" j);
          clause_idx = int_ (path ^ ".clause_idx") (field path "clause_idx" j);
        }
  | "param_env" -> Journal.Param_env (int_ (path ^ ".index") (field path "index" j))
  | "supertrait" -> Journal.Supertrait (payload Decode.path_of_json path "trait" j)
  | "builtin_req" -> Journal.Builtin_req (str (path ^ ".what") (field path "what" j))
  | "normalization" -> Journal.Normalization
  | s -> fail path ("unknown provenance " ^ s)

let source_to_json : Journal.source -> Json.t = function
  | Journal.Impl { impl_id; header } ->
      Json.Obj
        [ ("s", Json.String "impl"); ("impl_id", Json.Int impl_id); ("header", Json.String header) ]
  | Journal.Param_env_clause p ->
      Json.Obj [ ("s", Json.String "param_env"); ("clause", Encode.predicate p) ]
  | Journal.Builtin b -> Json.Obj [ ("s", Json.String "builtin"); ("name", Json.String b) ]

let source_of_json path j : Journal.source =
  match str (path ^ ".s") (field path "s" j) with
  | "impl" ->
      Journal.Impl
        {
          impl_id = int_ (path ^ ".impl_id") (field path "impl_id" j);
          header = str (path ^ ".header") (field path "header" j);
        }
  | "param_env" -> Journal.Param_env_clause (payload Decode.predicate_of_json path "clause" j)
  | "builtin" -> Journal.Builtin (str (path ^ ".name") (field path "name" j))
  | s -> fail path ("unknown candidate source " ^ s)

let failure_to_json : Journal.unify_failure -> Json.t = function
  | Journal.Head_mismatch (a, b) ->
      Json.Obj [ ("f", Json.String "head_mismatch"); ("left", Encode.ty a); ("right", Encode.ty b) ]
  | Journal.Arity (a, b) ->
      Json.Obj [ ("f", Json.String "arity"); ("left", Encode.ty a); ("right", Encode.ty b) ]
  | Journal.Region_mismatch (a, b) ->
      Json.Obj
        [ ("f", Json.String "region_mismatch"); ("left", Encode.region a); ("right", Encode.region b) ]
  | Journal.Occurs (i, t) ->
      Json.Obj [ ("f", Json.String "occurs"); ("var", Json.Int i); ("ty", Encode.ty t) ]
  | Journal.Projection_ambiguous (p, t) ->
      Json.Obj
        [
          ("f", Json.String "projection_ambiguous");
          ("proj", Encode.projection p);
          ("ty", Encode.ty t);
        ]

let failure_of_json path j : Journal.unify_failure =
  match str (path ^ ".f") (field path "f" j) with
  | "head_mismatch" ->
      Journal.Head_mismatch
        (payload Decode.ty_of_json path "left" j, payload Decode.ty_of_json path "right" j)
  | "arity" ->
      Journal.Arity
        (payload Decode.ty_of_json path "left" j, payload Decode.ty_of_json path "right" j)
  | "region_mismatch" ->
      Journal.Region_mismatch
        ( payload Decode.region_of_json path "left" j,
          payload Decode.region_of_json path "right" j )
  | "occurs" ->
      Journal.Occurs
        (int_ (path ^ ".var") (field path "var" j), payload Decode.ty_of_json path "ty" j)
  | "projection_ambiguous" ->
      Journal.Projection_ambiguous
        ( payload Decode.projection_of_json path "proj" j,
          payload Decode.ty_of_json path "ty" j )
  | s -> fail path ("unknown unify failure " ^ s)

let failure_opt_to_json = function None -> Json.Null | Some f -> failure_to_json f

let failure_opt_of_json path = function
  | Json.Null -> None
  | j -> Some (failure_of_json path j)

(* --- events --------------------------------------------------------- *)

let int_opt_to_json = function None -> Json.Null | Some i -> Json.Int i

let event_fields : Journal.event -> (string * Json.t) list = function
  | Journal.Goal_enter { id; parent; pred; depth; prov } ->
      [
        ("id", Json.Int id);
        ("parent", int_opt_to_json parent);
        ("pred", Encode.predicate pred);
        ("depth", Json.Int depth);
        ("prov", prov_to_json prov);
      ]
  | Journal.Goal_exit { id; pred; result; flags } ->
      [
        ("id", Json.Int id);
        ("pred", Encode.predicate pred);
        ("result", res_to_json result);
        ("flags", flags_to_json flags);
      ]
  | Journal.Goal_flag { id; flag } -> [ ("id", Json.Int id); ("flag", flag_to_json flag) ]
  | Journal.Cand_enter { id; goal; source } ->
      [ ("id", Json.Int id); ("goal", Json.Int goal); ("source", source_to_json source) ]
  | Journal.Cand_exit { id; result; failure } ->
      [
        ("id", Json.Int id);
        ("result", res_to_json result);
        ("failure", failure_opt_to_json failure);
      ]
  | Journal.Cand_assembled { goal; param_env; impls; builtin } ->
      [
        ("goal", Json.Int goal);
        ("param_env", Json.Int param_env);
        ("impls", Json.Int impls);
        ("builtin", Json.Int builtin);
      ]
  | Journal.Cand_commit { goal; cand } -> [ ("goal", Json.Int goal); ("cand", Json.Int cand) ]
  | Journal.Unify { node; left; right; failure } ->
      [
        ("node", int_opt_to_json node);
        ("left", Encode.ty left);
        ("right", Encode.ty right);
        ("failure", failure_opt_to_json failure);
      ]
  | Journal.Snapshot_open { snap; node } ->
      [ ("snap", Json.Int snap); ("node", int_opt_to_json node) ]
  | Journal.Snapshot_commit { snap } -> [ ("snap", Json.Int snap) ]
  | Journal.Snapshot_rollback { snap } -> [ ("snap", Json.Int snap) ]
  | Journal.Norm_resolved { id; resolved } ->
      [
        ("id", Json.Int id);
        ("resolved", match resolved with None -> Json.Null | Some t -> Encode.ty t);
      ]
  | Journal.Cycle_detected { id; pred } ->
      [ ("id", Json.Int id); ("pred", Encode.predicate pred) ]
  | Journal.Overflow_hit { id; depth_limited } ->
      [ ("id", Json.Int id); ("depth_limited", Json.Bool depth_limited) ]
  | Journal.Ambiguity { id; succeeded } ->
      [ ("id", Json.Int id); ("succeeded", Json.Int succeeded) ]
  | Journal.Probe_begin { origin; alternatives } ->
      [ ("origin", Json.String origin); ("alternatives", Json.Int alternatives) ]
  | Journal.Probe_end { committed } -> [ ("committed", int_opt_to_json committed) ]
  | Journal.Overlap_detected { trait_; impl_a; impl_b; witness } ->
      [
        ("trait", Encode.path trait_);
        ("impl_a", Json.Int impl_a);
        ("impl_b", Json.Int impl_b);
        ("witness", Encode.ty witness);
      ]

let entry_to_json (e : Journal.entry) : Json.t =
  Json.Obj
    (("seq", Json.Int e.seq)
    :: ("ts", Json.Int e.ts_ns)
    :: ("kind", Json.String (Journal.event_kind e.ev))
    :: event_fields e.ev)

let event_of_json path kind j : Journal.event =
  let id () = int_ (path ^ ".id") (field path "id" j) in
  match kind with
  | "goal_enter" ->
      Journal.Goal_enter
        {
          id = id ();
          parent = int_opt (path ^ ".parent") (field path "parent" j);
          pred = payload Decode.predicate_of_json path "pred" j;
          depth = int_ (path ^ ".depth") (field path "depth" j);
          prov = prov_of_json (path ^ ".prov") (field path "prov" j);
        }
  | "goal_exit" ->
      Journal.Goal_exit
        {
          id = id ();
          pred = payload Decode.predicate_of_json path "pred" j;
          result = res_of_json (path ^ ".result") (field path "result" j);
          flags = flags_of_json (path ^ ".flags") (field path "flags" j);
        }
  | "goal_flag" ->
      Journal.Goal_flag { id = id (); flag = flag_of_json (path ^ ".flag") (field path "flag" j) }
  | "cand_enter" ->
      Journal.Cand_enter
        {
          id = id ();
          goal = int_ (path ^ ".goal") (field path "goal" j);
          source = source_of_json (path ^ ".source") (field path "source" j);
        }
  | "cand_exit" ->
      Journal.Cand_exit
        {
          id = id ();
          result = res_of_json (path ^ ".result") (field path "result" j);
          failure = failure_opt_of_json (path ^ ".failure") (field path "failure" j);
        }
  | "cand_assembled" ->
      Journal.Cand_assembled
        {
          goal = int_ (path ^ ".goal") (field path "goal" j);
          param_env = int_ (path ^ ".param_env") (field path "param_env" j);
          impls = int_ (path ^ ".impls") (field path "impls" j);
          builtin = int_ (path ^ ".builtin") (field path "builtin" j);
        }
  | "cand_commit" ->
      Journal.Cand_commit
        {
          goal = int_ (path ^ ".goal") (field path "goal" j);
          cand = int_ (path ^ ".cand") (field path "cand" j);
        }
  | "unify" ->
      Journal.Unify
        {
          node = int_opt (path ^ ".node") (field path "node" j);
          left = payload Decode.ty_of_json path "left" j;
          right = payload Decode.ty_of_json path "right" j;
          failure = failure_opt_of_json (path ^ ".failure") (field path "failure" j);
        }
  | "snapshot_open" ->
      Journal.Snapshot_open
        {
          snap = int_ (path ^ ".snap") (field path "snap" j);
          node = int_opt (path ^ ".node") (field path "node" j);
        }
  | "snapshot_commit" ->
      Journal.Snapshot_commit { snap = int_ (path ^ ".snap") (field path "snap" j) }
  | "snapshot_rollback" ->
      Journal.Snapshot_rollback { snap = int_ (path ^ ".snap") (field path "snap" j) }
  | "norm_resolved" ->
      Journal.Norm_resolved
        {
          id = id ();
          resolved =
            (match field path "resolved" j with
            | Json.Null -> None
            | t -> Some (Decode.ty_of_json ~path:(path ^ ".resolved") t));
        }
  | "cycle_detected" ->
      Journal.Cycle_detected
        { id = id (); pred = payload Decode.predicate_of_json path "pred" j }
  | "overflow_hit" ->
      Journal.Overflow_hit
        {
          id = id ();
          depth_limited = bool_ (path ^ ".depth_limited") (field path "depth_limited" j);
        }
  | "ambiguity" ->
      Journal.Ambiguity
        { id = id (); succeeded = int_ (path ^ ".succeeded") (field path "succeeded" j) }
  | "probe_begin" ->
      Journal.Probe_begin
        {
          origin = str (path ^ ".origin") (field path "origin" j);
          alternatives = int_ (path ^ ".alternatives") (field path "alternatives" j);
        }
  | "probe_end" ->
      Journal.Probe_end
        { committed = int_opt (path ^ ".committed") (field path "committed" j) }
  | "overlap_detected" ->
      Journal.Overlap_detected
        {
          trait_ = payload Decode.path_of_json path "trait" j;
          impl_a = int_ (path ^ ".impl_a") (field path "impl_a" j);
          impl_b = int_ (path ^ ".impl_b") (field path "impl_b" j);
          witness = payload Decode.ty_of_json path "witness" j;
        }
  | k -> fail path ("unknown event kind " ^ k)

let entry_of_json ~path (j : Json.t) : Journal.entry =
  {
    Journal.seq = int_ (path ^ ".seq") (field path "seq" j);
    ts_ns = int_ (path ^ ".ts") (field path "ts" j);
    ev = event_of_json path (str (path ^ ".kind") (field path "kind" j)) j;
  }

(* --- the JSONL stream ----------------------------------------------- *)

let header_line () = Json.to_string (Json.Obj [ ("schema", Json.String schema) ])

let to_jsonl (entries : Journal.entry list) : string =
  let buf = Buffer.create (256 * (1 + List.length entries)) in
  Buffer.add_string buf (header_line ());
  Buffer.add_char buf '\n';
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.to_string (entry_to_json e));
      Buffer.add_char buf '\n')
    entries;
  Buffer.contents buf

let of_jsonl (s : string) : Journal.entry list =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> fail "$" "empty journal: missing header line"
  | header :: rest ->
      let hj =
        try Json.of_string header
        with Json.Parse_error (msg, pos) ->
          fail "$.header" (Printf.sprintf "malformed header (%s at offset %d)" msg pos)
      in
      (match Json.member "schema" hj with
      | Some (Json.String s) when s = schema -> ()
      | Some (Json.String s) ->
          fail "$.header" (Printf.sprintf "unsupported schema %S (expected %S)" s schema)
      | _ -> fail "$.header" "missing schema field");
      List.mapi
        (fun i line ->
          let path = Printf.sprintf "$.line[%d]" (i + 2) in
          let j =
            try Json.of_string line
            with Json.Parse_error (msg, pos) ->
              fail path (Printf.sprintf "malformed JSON (%s at offset %d)" msg pos)
          in
          entry_of_json ~path j)
        rest

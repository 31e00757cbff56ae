(** Per-goal cost attribution over the search journal.

    The journal stream is already a perfectly nested account of the
    solver's execution: [Goal_enter]/[Goal_exit] and
    [Cand_enter]/[Cand_exit] bracket every frame, each entry carries a
    monotonic [ts_ns], and unify events land between the brackets
    of the frame that caused them.  Attribution is therefore a single
    stack-driven fold: a frame's {e total} is its exit-minus-enter
    delta, its {e self} is that total minus its children's totals, and
    in-flight events tally onto the innermost open frame.  Self times
    partition wall time exactly — the invariant the tests check —
    because sibling windows are disjoint sub-intervals of the parent's
    window on one monotonic clock. *)

open Trait_lang

type kind =
  | Goal of { pred : Predicate.t; prov : Journal.prov }
  | Cand of { source : Journal.source }

type node = {
  p_id : int;
  mutable p_kind : kind;
  p_depth : int;
  p_enter_ns : int;
  mutable p_exit_ns : int;
  mutable p_result : Journal.res;
  mutable p_total_ns : int;
  mutable p_self_ns : int;
  mutable p_unify : int;
  mutable p_unify_failures : int;
  mutable p_total_w : float;
  mutable p_self_w : float;
  mutable p_children : node list;
}

type t = {
  roots : node list;
  total_ns : int;
  total_w : float;
  events : int;
  index : (int, node) Hashtbl.t;
  has_words : bool;
  zero_ts : bool;
}

(* An open frame on the attribution stack: the node under construction
   plus its entry allocation sample and reverse-order children. *)
type frame = {
  f_node : node;
  f_enter_w : float;
  mutable f_children : node list;  (** reverse order *)
}

let label n =
  match n.p_kind with
  | Goal { pred; _ } -> Pretty.predicate pred
  | Cand { source } -> Journal.source_to_string source

let of_entries ?words (entries : Journal.entry list) : t =
  let index = Hashtbl.create 256 in
  let stack : frame list ref = ref [] in
  let roots = ref [] in
  let last_ts = ref 0 in
  let last_w = ref 0.0 in
  let pos = ref 0 in
  let word_at i =
    match words with
    | Some w when i < Array.length w -> w.(i)
    | _ -> 0.0
  in
  let first_ts =
    match entries with e :: _ -> e.Journal.ts_ns | [] -> 0
  in
  let zero_ts = ref true in
  let open_frame ~id ~kind ~ts ~w =
    let n =
      {
        p_id = id;
        p_kind = kind;
        p_depth = List.length !stack;
        p_enter_ns = ts;
        p_exit_ns = ts;
        p_result = Journal.Maybe;
        p_total_ns = 0;
        p_self_ns = 0;
        p_unify = 0;
        p_unify_failures = 0;
        p_total_w = 0.0;
        p_self_w = 0.0;
        p_children = [];
      }
    in
    Hashtbl.replace index id n;
    stack := { f_node = n; f_enter_w = w; f_children = [] } :: !stack
  in
  let close_top ~ts ~w =
    match !stack with
    | [] -> ()
    | f :: rest ->
        let n = f.f_node in
        n.p_exit_ns <- ts;
        n.p_children <- List.rev f.f_children;
        n.p_total_ns <- max 0 (ts - n.p_enter_ns);
        n.p_total_w <- Float.max 0.0 (w -. f.f_enter_w);
        let child_ns =
          List.fold_left (fun acc c -> acc + c.p_total_ns) 0 n.p_children
        in
        let child_w =
          List.fold_left (fun acc c -> acc +. c.p_total_w) 0.0 n.p_children
        in
        n.p_self_ns <- max 0 (n.p_total_ns - child_ns);
        n.p_self_w <- Float.max 0.0 (n.p_total_w -. child_w);
        stack := rest;
        (match rest with
        | parent :: _ -> parent.f_children <- n :: parent.f_children
        | [] -> roots := n :: !roots)
  in
  let top_node () = match !stack with [] -> None | f :: _ -> Some f.f_node in
  List.iter
    (fun (e : Journal.entry) ->
      let ts = e.Journal.ts_ns in
      let w = word_at !pos in
      incr pos;
      if ts <> first_ts then zero_ts := false;
      last_ts := ts;
      last_w := w;
      (match e.Journal.ev with
      | Journal.Goal_enter { id; pred; prov; _ } ->
          open_frame ~id ~kind:(Goal { pred; prov }) ~ts ~w
      | Journal.Cand_enter { id; source; _ } ->
          open_frame ~id ~kind:(Cand { source }) ~ts ~w
      | Journal.Goal_exit { id; pred; result; _ } ->
          (match top_node () with
          | Some n when n.p_id = id -> (
              n.p_result <- result;
              (* the exit predicate is authoritative (§4 statefulness) *)
              match n.p_kind with
              | Goal g ->
                  if not (Predicate.equal g.pred pred) then
                    n.p_kind <- Goal { g with pred }
              | Cand _ -> ())
          | _ -> ());
          close_top ~ts ~w
      | Journal.Cand_exit { id; result; _ } ->
          (match top_node () with
          | Some n when n.p_id = id -> n.p_result <- result
          | _ -> ());
          close_top ~ts ~w
      | Journal.Unify { failure; _ } -> (
          match top_node () with
          | Some n ->
              n.p_unify <- n.p_unify + 1;
              if failure <> None then n.p_unify_failures <- n.p_unify_failures + 1
          | None -> ())
      | _ -> ()))
    entries;
  (* truncated stream: close whatever is still open at the last stamp *)
  while !stack <> [] do
    close_top ~ts:!last_ts ~w:!last_w
  done;
  let roots = List.rev !roots in
  let total_ns = List.fold_left (fun acc r -> acc + r.p_total_ns) 0 roots in
  let total_w = List.fold_left (fun acc r -> acc +. r.p_total_w) 0.0 roots in
  {
    roots;
    total_ns;
    total_w;
    events = List.length entries;
    index;
    has_words = words <> None;
    zero_ts = !zero_ts && entries <> [];
  }

let record f =
  let acc : (Journal.entry * float) list ref = ref [] in
  let sample () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  Journal.set_sink (Some (fun e -> acc := (e, sample ()) :: !acc));
  let r = Fun.protect ~finally:(fun () -> Journal.set_sink None) f in
  let recorded = List.rev !acc in
  let entries = List.map fst recorded in
  let words = Array.of_list (List.map snd recorded) in
  (r, entries, words)

let iter g t =
  let rec walk n =
    g n;
    List.iter walk n.p_children
  in
  List.iter walk t.roots

let fold g acc t =
  let acc = ref acc in
  iter (fun n -> acc := g !acc n) t;
  !acc

(* ------------------------------------------------------------------ *)
(* Aggregation *)

type agg = {
  a_label : string;
  a_count : int;
  a_self_ns : int;
  a_total_ns : int;
  a_unify : int;
  a_self_w : float;
}

let aggregate ~keep t =
  let rows : (string, agg ref) Hashtbl.t = Hashtbl.create 64 in
  (* walk with the set of labels on the path, so a recursive frame's
     total is counted once per outermost occurrence *)
  let rec walk on_path n =
    let lbl = label n in
    (if keep n then begin
       let r =
         match Hashtbl.find_opt rows lbl with
         | Some r -> r
         | None ->
             let r =
               ref
                 {
                   a_label = lbl;
                   a_count = 0;
                   a_self_ns = 0;
                   a_total_ns = 0;
                   a_unify = 0;
                   a_self_w = 0.0;
                 }
             in
             Hashtbl.add rows lbl r;
             r
       in
       let a = !r in
       r :=
         {
           a with
           a_count = a.a_count + 1;
           a_self_ns = a.a_self_ns + n.p_self_ns;
           a_total_ns =
             (if List.mem lbl on_path then a.a_total_ns
              else a.a_total_ns + n.p_total_ns);
           a_unify = a.a_unify + n.p_unify;
           a_self_w = a.a_self_w +. n.p_self_w;
         }
     end);
    List.iter (walk (label n :: on_path)) n.p_children
  in
  List.iter (walk []) t.roots;
  Hashtbl.fold (fun _ r acc -> !r :: acc) rows []
  |> List.sort (fun a b ->
         match compare b.a_self_ns a.a_self_ns with
         | 0 -> String.compare a.a_label b.a_label
         | c -> c)

let top_goals t n =
  let rows =
    aggregate ~keep:(fun f -> match f.p_kind with Goal _ -> true | Cand _ -> false) t
  in
  if n <= 0 then rows
  else List.filteri (fun i _ -> i < n) rows

let by_source t =
  aggregate ~keep:(fun f -> match f.p_kind with Cand _ -> true | Goal _ -> false) t

(* ------------------------------------------------------------------ *)
(* Exports *)

let folded t =
  let rows = ref [] in
  let rec walk path n =
    let path = label n :: path in
    if n.p_self_ns > 0 then rows := (List.rev path, n.p_self_ns) :: !rows;
    List.iter (walk path) n.p_children
  in
  List.iter (walk []) t.roots;
  List.rev !rows

let frame_events t =
  let t0 =
    match t.roots with r :: _ -> r.p_enter_ns | [] -> 0
  in
  let events = ref [] in
  let push fe = events := fe :: !events in
  let rec walk n =
    push
      {
        Argus_json.Flame.fe_frame = label n;
        fe_open = true;
        fe_at = max 0 (n.p_enter_ns - t0);
      };
    List.iter walk n.p_children;
    push
      {
        Argus_json.Flame.fe_frame = label n;
        fe_open = false;
        fe_at = max 0 (n.p_exit_ns - t0);
      }
  in
  List.iter walk t.roots;
  let end_at =
    List.fold_left (fun acc (r : node) -> max acc (r.p_exit_ns - t0)) 0 t.roots
  in
  (List.rev !events, end_at)

let pct part whole =
  if whole <= 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

let top_table ?(top = 10) t =
  let b = Buffer.create 2048 in
  let fmt = Telemetry.format_ns in
  Buffer.add_string b
    (Printf.sprintf "profile: %d events, %d frames, attributed %s%s\n" t.events
       (Hashtbl.length t.index)
       (fmt (float_of_int t.total_ns))
       (if t.has_words then Printf.sprintf ", %.0f words allocated" t.total_w else ""));
  if t.zero_ts then
    Buffer.add_string b
      "warning: all timestamps are identical (a normalized journal, e.g. from \
       `argus check --events-out`); time columns are meaningless — re-record \
       with `argus check --timestamps` or a single-file subcommand\n";
  let header kind =
    Buffer.add_string b
      (Printf.sprintf "%-44s %6s %9s %6s %9s %7s\n" kind "count" "self"
         "self%" "total" "unify")
  in
  let row a =
    Buffer.add_string b
      (Printf.sprintf "%-44s %6d %9s %5.1f%% %9s %7d\n"
         (if String.length a.a_label > 44 then String.sub a.a_label 0 41 ^ "..."
          else a.a_label)
         a.a_count
         (fmt (float_of_int a.a_self_ns))
         (pct a.a_self_ns t.total_ns)
         (fmt (float_of_int a.a_total_ns))
         a.a_unify)
  in
  header (Printf.sprintf "hot goals (top %d by self time)" top);
  List.iter row (top_goals t top);
  let sources = by_source t in
  if sources <> [] then begin
    header "candidate sources";
    List.iter row
      (if top <= 0 then sources else List.filteri (fun i _ -> i < top) sources)
  end;
  Buffer.contents b

let heat_of_id t id =
  match Hashtbl.find_opt t.index id with
  | None -> None
  | Some n ->
      if t.total_ns <= 0 then None
      else begin
        let max_self = fold (fun acc f -> max acc f.p_self_ns) 1 t in
        let intensity =
          Float.min 1.0 (float_of_int n.p_self_ns /. float_of_int max_self)
        in
        let lbl =
          Printf.sprintf "self %s (%.1f%%) · total %s"
            (Telemetry.format_ns (float_of_int n.p_self_ns))
            (pct n.p_self_ns t.total_ns)
            (Telemetry.format_ns (float_of_int n.p_total_ns))
        in
        Some (intensity, lbl)
      end

(* Re-export: [profile.ml] is the library's root interface module, so
   sibling modules are hidden from outside unless aliased here. *)
module Bench_diff = Bench_diff

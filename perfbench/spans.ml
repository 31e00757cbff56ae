(* Benchmark-side tracing: spans recorded around the benchmark's own
   calls into the system's public functions.  Spans stay in memory until
   the run ends; with recording off, [with_span] is a plain call.

   One op is one root span ([root]); every span carries the id of the op
   it belongs to, the span that caused it, and the domain it ran on.  A
   span opened on a worker domain names its parent explicitly, since the
   per-domain stack of open spans only knows about its own domain. *)

type span = {
  id : int;
  op : int;
  name : string;
  parent : int;  (** [-1] for an op's root span *)
  start_ns : int;
  stop_ns : int;
  domain : int;
}

let on = Atomic.make false
let next_id = Atomic.make 0
let current_op = Atomic.make (-1)
let lock = Mutex.create ()
let recorded : span list ref = ref []
let open_stack : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let enabled () = Atomic.get on
let set_enabled b = Atomic.set on b

let clear () =
  Mutex.lock lock;
  recorded := [];
  Mutex.unlock lock

(** The innermost span open on the calling domain, or [-1]. *)
let current () =
  match Domain.DLS.get open_stack with id :: _ -> id | [] -> -1

let record s =
  Mutex.lock lock;
  recorded := s :: !recorded;
  Mutex.unlock lock

let run_span ~op ~parent name f =
  let id = Atomic.fetch_and_add next_id 1 in
  let stack = Domain.DLS.get open_stack in
  Domain.DLS.set open_stack (id :: stack);
  let start_ns = Telemetry.now_ns () in
  let finish () =
    let stop_ns = Telemetry.now_ns () in
    Domain.DLS.set open_stack stack;
    record
      {
        id;
        op;
        name;
        parent;
        start_ns;
        stop_ns;
        domain = (Domain.self () :> int);
      }
  in
  Fun.protect ~finally:finish f

(** [with_span name f] records [f ()] as a child of [parent] (default:
    the innermost span open on this domain). *)
let with_span ?parent name f =
  if not (Atomic.get on) then f ()
  else
    let parent = match parent with Some p -> p | None -> current () in
    run_span ~op:(Atomic.get current_op) ~parent name f

(** [root op f] records [f ()] as the root span of op number [op]. *)
let root op f =
  if not (Atomic.get on) then f ()
  else begin
    Atomic.set current_op op;
    run_span ~op ~parent:(-1) "op" f
  end

(** Every recorded span, in start order. *)
let all () =
  Mutex.lock lock;
  let l = !recorded in
  Mutex.unlock lock;
  List.sort (fun a b -> compare (a.start_ns, a.id) (b.start_ns, b.id)) l

(** The layer a span belongs to: its name up to the first dot, with the
    op root (the benchmark's own glue between calls) as [bench]. *)
let layer_of name =
  if name = "op" then "bench"
  else match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let to_json_line s =
  Printf.sprintf
    {|{"id":%d,"op":%d,"name":%S,"parent":%d,"start_ns":%d,"end_ns":%d,"domain":%d}|}
    s.id s.op s.name s.parent s.start_ns s.stop_ns s.domain

let write_jsonl path spans =
  let rec mkdirs d =
    if d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      mkdirs (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdirs (Filename.dirname path);
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc (to_json_line s);
      output_char oc '\n')
    spans;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Self time *)

(* Total length of the union of [(start, stop)] intervals clipped to
   [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (total, Some (ca, max cb b)) else (total + (cb - ca), Some (a, b)))
      (0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

type op_breakdown = {
  ob_op : int;
  ob_wall_ns : int;  (** the root span's duration *)
  ob_self : (string * float) list;  (** attributed self ns per layer *)
  ob_nesting_errors : int;  (** spans not inside their parent *)
}

(** Attribute one op's wall time to layers.  A span's self time is its
    duration minus the part of it that its children cover.  Children
    that ran in parallel (on the domain pool) overlap; their shares are
    scaled by covered / (sum of their durations), so the attributed self
    times of an op add up to its wall time exactly. *)
let breakdown (spans : span list) : op_breakdown list =
  let by_op = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let l = try Hashtbl.find by_op s.op with Not_found -> [] in
      Hashtbl.replace by_op s.op (s :: l))
    spans;
  Hashtbl.fold
    (fun op ss acc ->
      let children = Hashtbl.create 16 in
      let root = ref None in
      List.iter
        (fun s ->
          if s.parent < 0 then root := Some s
          else
            let l = try Hashtbl.find children s.parent with Not_found -> [] in
            Hashtbl.replace children s.parent (s :: l))
        ss;
      match !root with
      | None -> acc
      | Some r ->
          let self = Hashtbl.create 8 in
          let errors = ref 0 in
          let add layer v =
            Hashtbl.replace self layer (v +. try Hashtbl.find self layer with Not_found -> 0.0)
          in
          let rec walk s scale =
            let kids = try Hashtbl.find children s.id with Not_found -> [] in
            List.iter
              (fun k -> if k.start_ns < s.start_ns || k.stop_ns > s.stop_ns then incr errors)
              kids;
            let cov =
              covered ~lo:s.start_ns ~hi:s.stop_ns
                (List.map (fun k -> (k.start_ns, k.stop_ns)) kids)
            in
            add (layer_of s.name) (scale *. float_of_int (s.stop_ns - s.start_ns - cov));
            let sum_kids =
              List.fold_left
                (fun a k -> a + (min k.stop_ns s.stop_ns - max k.start_ns s.start_ns))
                0 kids
            in
            if sum_kids > 0 then begin
              let kscale = scale *. float_of_int cov /. float_of_int sum_kids in
              List.iter (fun k -> walk k kscale) kids
            end
          in
          walk r 1.0;
          {
            ob_op = op;
            ob_wall_ns = r.stop_ns - r.start_ns;
            ob_self = Hashtbl.fold (fun k v a -> (k, v) :: a) self [];
            ob_nesting_errors = !errors;
          }
          :: acc)
    by_op []

(* The interface every workload implements, and the per-layer samples
   workloads record from their own calls while tracing is on. *)

(** One call of a workload's [step]: it sent [requests] requests (one,
    except for serve-editor's rounds) and hands back a check to run
    outside the timed region, returning how many requests were wrong. *)
type step = { requests : int; check : unit -> int }

type instance = {
  step : unit -> step;
  cycle_start : unit -> bool;
      (** does the next step begin a pass over the workload's input
          schedule (a cycle)?  True before the first step. *)
  teardown : unit -> unit;
}

(** A workload.  [generate] and [start] are the user-visible set-up
    (timed as [setup_s]); [reference] computes the expected outputs the
    checks compare against, once per run and outside any timing.  With
    [inject_fault], [reference] plants one wrong expectation, so a
    correct program must fail a check (the benchmark's own tests use
    this). *)
type t =
  | W : {
      name : string;
      generate : seed:int -> 'i;
      digest : 'i -> string;
      reference : inject_fault:bool -> 'i -> 'r;
      start : 'i -> 'r -> instance;
    }
      -> t

let name (W w) = w.name

(* ------------------------------------------------------------------ *)
(* Samples taken from the benchmark's own calls while tracing is on:
   byte counts, conjunct counts, journal-capture probes. *)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 16
let samples_lock = Mutex.create ()

let sample name v =
  if Spans.enabled () then begin
    Mutex.lock samples_lock;
    Hashtbl.replace samples name (v :: (try Hashtbl.find samples name with Not_found -> []));
    Mutex.unlock samples_lock
  end

let samples_of name = try Hashtbl.find samples name with Not_found -> []
let clear_samples () = Hashtbl.reset samples

(** Time [f ()] in wall-clock nanoseconds. *)
let timed f =
  let t0 = Telemetry.now_ns () in
  let r = f () in
  (r, Telemetry.now_ns () - t0)

(** Processor time used by the whole process (every domain), in
    nanoseconds, at the microsecond resolution of getrusage. *)
let cpu_ns () = int_of_float (Sys.time () *. 1e9)

(** A stable digest of generated inputs, for the same-seed test. *)
let digest_strings l = Digest.to_hex (Digest.string (String.concat "\x00" l))

(** A seeded permutation of [0 .. n-1]: the [round]-th of the seed's
    schedule.  Workloads draw a fresh order every cycle, so where an
    expensive input falls relative to the others (and to the garbage
    collector's debt it leaves behind) averages out within a run
    instead of differing from seed to seed. *)
let permutation ~seed ~round n =
  let rng = Random.State.make [| seed; round; 0x7065 |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

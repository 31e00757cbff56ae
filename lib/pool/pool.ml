(** A fixed-size domain pool: [jobs] worker domains servicing one shared
    queue under a mutex + condition, with ordered result collection and
    first-by-index exception propagation (see the interface).

    Memory-model note: a worker writes its result slot {e before} taking
    the batch mutex to bump the done counter, and the caller reads the
    slots only {e after} observing the final count under the same mutex
    — the release/acquire pair on that mutex makes every slot write
    visible to the caller. *)

let c_tasks = Telemetry.counter "pool.tasks"
let c_batches = Telemetry.counter "pool.batches"
let c_domains = Telemetry.counter "pool.domains"

type task = Run of (unit -> unit) | Quit

type t = {
  n_jobs : int;
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : task Queue.t;
  mutable domains : unit Domain.t array;  (** [[||]] once shut down *)
}

let rec worker t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue do
    Condition.wait t.nonempty t.mutex
  done;
  let task = Queue.pop t.queue in
  Mutex.unlock t.mutex;
  match task with
  | Quit -> ()
  | Run f ->
      f ();
      worker t

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      n_jobs = jobs;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      domains = [||];
    }
  in
  t.domains <- Array.init jobs (fun _ -> Domain.spawn (fun () -> worker t));
  Telemetry.record_max c_domains jobs;
  t

let jobs t = t.n_jobs

let map (type b) t (f : 'a -> b) (xs : 'a list) : b list =
  Telemetry.incr c_batches;
  let inputs = Array.of_list xs in
  let n = Array.length inputs in
  if n = 0 then []
  else begin
    let results : b option array = Array.make n None in
    let errors : (exn * Printexc.raw_backtrace) option array = Array.make n None in
    let batch_mutex = Mutex.create () in
    let batch_done = Condition.create () in
    let completed = ref 0 in
    let task i () =
      Telemetry.incr c_tasks;
      (match f inputs.(i) with
      | v -> results.(i) <- Some v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          errors.(i) <- Some (e, bt));
      (* Any telemetry events the task buffered belong to the merged
         stream, not to whichever worker happened to run it. *)
      Telemetry.flush_domain_events ();
      Mutex.lock batch_mutex;
      incr completed;
      if !completed = n then Condition.broadcast batch_done;
      Mutex.unlock batch_mutex
    in
    Mutex.lock t.mutex;
    for i = 0 to n - 1 do
      Queue.add (Run (task i)) t.queue
    done;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    Mutex.lock batch_mutex;
    while !completed < n do
      Condition.wait batch_done batch_mutex
    done;
    Mutex.unlock batch_mutex;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    Array.to_list (Array.map Option.get results)
  end

let shutdown t =
  let ds = t.domains in
  if Array.length ds > 0 then begin
    t.domains <- [||];
    Mutex.lock t.mutex;
    for _ = 1 to t.n_jobs do
      Queue.add Quit t.queue
    done;
    Condition.broadcast t.nonempty;
    Mutex.unlock t.mutex;
    Array.iter Domain.join ds
  end

(* Worker-pool speculation scheduler.

   Concurrency structure: one producer (the node's replay loop), [jobs]
   worker domains.  The work queue carries only tx hashes; the requests
   themselves live in per-hash chains under [t.mu].  A chain is created by
   the submission that finds none for its hash, and that submission alone
   pushes the hash onto the queue; the worker that pops the hash runs the
   chain to empty and then removes it.  So every queue entry names exactly
   one live, not-yet-claimed, non-empty chain, which [worker] relies on —
   and which serialises same-tx jobs (they mutate the same spec record)
   without any per-job locking. *)

(* re-exported: the library wrapper hides sibling modules behind [Sched] *)
module Workq = Workq
module Mailbox = Mailbox
module Conflict = Conflict

type 'r req = { seq : int; hash : string; job : unit -> 'r }

type 'r result = { r_seq : int; r_hash : string; r_value : ('r, exn) Stdlib.result }

type stats = {
  jobs : int;
  submitted : int;
  completed : int;
  merged : int;
  deduped : int;
  queued : int;
  running : int;
  high_water : int;
}

type 'r t = {
  n_jobs : int;
  q : string Workq.t;
  mu : Mutex.t;
  idle : Condition.t;
  cells : (string, 'r req Queue.t) Hashtbl.t; (* hash -> chain, submission order *)
  memo : (string, string) Hashtbl.t; (* hash -> dedupe key of latest live submission *)
  results : 'r result Mailbox.t;
  mutable next_seq : int;
  mutable n_queued : int; (* requests sitting in chains *)
  mutable n_running : int;
  mutable s_submitted : int;
  mutable s_completed : int;
  mutable s_merged : int;
  mutable s_deduped : int;
  mutable domains : unit Domain.t list;
  mutable stopped : bool;
}

let empty_stats =
  {
    jobs = 1;
    submitted = 0;
    completed = 0;
    merged = 0;
    deduped = 0;
    queued = 0;
    running = 0;
    high_water = 0;
  }

let obs_submitted = Obs.counter "sched.submitted"
let obs_completed = Obs.counter "sched.completed"
let obs_deduped = Obs.counter "sched.deduped"
let obs_depth = Obs.gauge "sched.queue_depth"

let jobs t = t.n_jobs

(* [f] under [t.mu] in parallel mode; inline mode is single-threaded *)
let locked t f = if t.n_jobs <= 1 then f () else Mutex.protect t.mu f

let run_job job = try Ok (Obs.span "sched.job" job) with e -> Error e

let complete t req value =
  Mailbox.push t.results { r_seq = req.seq; r_hash = req.hash; r_value = value };
  t.s_completed <- t.s_completed + 1;
  Obs.incr obs_completed

(* Worker side: run [hash]'s chain until it is empty, then retire it. *)

let rec run_chain t hash chain req =
  let value = run_job req.job in
  Mutex.lock t.mu;
  complete t req value;
  match Queue.take_opt chain with
  | Some next ->
    t.n_queued <- t.n_queued - 1;
    Mutex.unlock t.mu;
    run_chain t hash chain next
  | None ->
    Hashtbl.remove t.cells hash;
    t.n_running <- t.n_running - 1;
    if !Obs.enabled then Obs.set obs_depth (float_of_int t.n_queued);
    if t.n_queued = 0 && t.n_running = 0 then Condition.broadcast t.idle;
    Mutex.unlock t.mu

let rec worker t =
  match Workq.pop t.q with
  | None -> () (* closed and drained: exit the domain *)
  | Some hash ->
    Mutex.lock t.mu;
    let chain = Hashtbl.find t.cells hash in
    let req = Queue.pop chain in
    t.n_queued <- t.n_queued - 1;
    t.n_running <- t.n_running + 1;
    Mutex.unlock t.mu;
    run_chain t hash chain req;
    worker t

let create ?(capacity = 4096) ~jobs () =
  if jobs < 1 then invalid_arg "Sched.create: jobs must be >= 1";
  let t =
    {
      n_jobs = jobs;
      q = Workq.create ~capacity ();
      mu = Mutex.create ();
      idle = Condition.create ();
      cells = Hashtbl.create 256;
      memo = Hashtbl.create 256;
      results = Mailbox.create ();
      next_seq = 0;
      n_queued = 0;
      n_running = 0;
      s_submitted = 0;
      s_completed = 0;
      s_merged = 0;
      s_deduped = 0;
      domains = [];
      stopped = false;
    }
  in
  if jobs > 1 then
    t.domains <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker t));
  t

(* under [t.mu] in parallel mode.  A submission is a duplicate when its
   [dedupe_key] matches the latest live submission for the hash: that job's
   result is already in the Mailbox (or on its way there), so running the
   identical work again would only burn a worker — the jobs=4 merged-waste
   regression.  Keyless submissions never dedupe and clear the memo (they
   will publish a fresh result).  Returns the numbered request, or [None]
   for a duplicate. *)
let admit t ~hash dedupe_key job =
  let dup =
    match dedupe_key with
    | Some k when Hashtbl.find_opt t.memo hash = Some k -> true
    | Some k ->
      Hashtbl.replace t.memo hash k;
      false
    | None ->
      Hashtbl.remove t.memo hash;
      false
  in
  if dup then begin
    t.s_deduped <- t.s_deduped + 1;
    Obs.incr obs_deduped;
    None
  end
  else begin
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    t.s_submitted <- t.s_submitted + 1;
    Obs.incr obs_submitted;
    Some { seq; hash; job }
  end

let submit ?dedupe_key t ~hash ~priority job =
  if t.stopped then invalid_arg "Sched.submit: scheduler is shut down";
  if t.n_jobs <= 1 then
    (* inline deterministic mode: run now, on this domain *)
    Option.iter
      (fun req -> complete t req (run_job req.job))
      (admit t ~hash dedupe_key job)
  else begin
    Mutex.lock t.mu;
    let need_push =
      match admit t ~hash dedupe_key job with
      | None -> false
      | Some req ->
        t.n_queued <- t.n_queued + 1;
        if !Obs.enabled then Obs.set obs_depth (float_of_int t.n_queued);
        (match Hashtbl.find_opt t.cells hash with
        | Some chain ->
          (* live chain: the worker that owns it, or will pop it, runs this
             after everything already in it *)
          Queue.push req chain;
          t.s_merged <- t.s_merged + 1;
          false
        | None ->
          let chain = Queue.create () in
          Queue.push req chain;
          Hashtbl.add t.cells hash chain;
          true)
    in
    Mutex.unlock t.mu;
    (* push outside the lock: it may block on backpressure *)
    if need_push then ignore (Workq.push t.q ~priority hash : bool)
  end

let drain t =
  List.sort
    (fun a b -> compare a.r_seq b.r_seq)
    (Mailbox.drain t.results)

let barrier t =
  if t.n_jobs > 1 then begin
    Mutex.lock t.mu;
    while t.n_queued > 0 || t.n_running > 0 do
      Condition.wait t.idle t.mu
    done;
    Mutex.unlock t.mu
  end

(* Bookkeeping-only: no queue or chain state is touched, so this is safe
   to call for hashes with live work — although the node only calls it for
   retired ones.  The memo grows monotonically with the set of hashes ever
   submitted, so retiring them here is what bounds it. *)
let forget t hashes = locked t (fun () -> List.iter (Hashtbl.remove t.memo) hashes)

let memo_size t = locked t (fun () -> Hashtbl.length t.memo)

let stats t =
  locked t (fun () ->
      {
        jobs = t.n_jobs;
        submitted = t.s_submitted;
        completed = t.s_completed;
        merged = t.s_merged;
        deduped = t.s_deduped;
        queued = t.n_queued;
        running = t.n_running;
        high_water = Workq.high_water t.q;
      })

let shutdown t =
  if not t.stopped then begin
    t.stopped <- true;
    Workq.close t.q;
    List.iter Domain.join t.domains;
    t.domains <- []
  end

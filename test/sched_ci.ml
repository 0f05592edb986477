(* The @sched alias: the fuzz corpus plus a bounded generated sweep through
   the parallel speculation path.  jobs=4 must produce byte-identical APs
   (structural fingerprints) and identical constraint-satisfaction outcomes
   as jobs=1 on every scenario — exit non-zero on any mismatch.

   Also pins two scheduler bookkeeping policies at CI scale, so the old
   behaviours cannot silently return: the dedupe memo must skip
   duplicate-key submissions instead of chaining redundant jobs (the
   jobs=4 merged=6881 waste), and [forget] must bound the memo to the
   live hashes. *)

let jobs = 4
let sweep_iters = 8
let seed = 42

(* Duplicate (hash, dedupe_key) storm: 1 real job + n duplicates per hash.
   The broken policy chained every duplicate — completed would read
   hashes*(n+1) and merged would count the waste. *)
let dedupe_regression ~jobs =
  let s : int Sched.t = Sched.create ~jobs () in
  let hashes = 32 and dups = 8 in
  for h = 0 to hashes - 1 do
    let hash = Printf.sprintf "tx%d" h in
    for _ = 0 to dups do
      Sched.submit s ~dedupe_key:"ctx" ~hash ~priority:(U256.of_int 1)
        (fun () -> h)
    done
  done;
  Sched.barrier s;
  let st = Sched.stats s in
  let results = List.length (Sched.drain s) in
  Sched.shutdown s;
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt in
  if results <> hashes then
    fail "sched-ci: DEDUPE REGRESSION (jobs=%d): %d results for %d hashes" jobs results
      hashes;
  if st.Sched.completed <> hashes then
    fail "sched-ci: DEDUPE REGRESSION (jobs=%d): %d executions for %d hashes (waste!)"
      jobs st.Sched.completed hashes;
  if st.Sched.deduped <> hashes * dups then
    fail "sched-ci: DEDUPE REGRESSION (jobs=%d): %d deduped, expected %d" jobs
      st.Sched.deduped (hashes * dups)

(* Bookkeeping bound: submitting under a hash populates the dedupe memo;
   [forget] must shrink it to exactly the hashes not yet retired, or it
   leaks one entry per retired transaction forever. *)
let forget_bound_regression ~jobs =
  let s : int Sched.t = Sched.create ~jobs () in
  let n = 24 in
  let hashes = List.init n (Printf.sprintf "tx%d") in
  List.iter
    (fun hash ->
      Sched.submit s ~dedupe_key:"ctx" ~hash ~priority:(U256.of_int 1) (fun () -> 0))
    hashes;
  Sched.barrier s;
  ignore (Sched.drain s : int Sched.result list);
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt in
  if Sched.memo_size s <> n then
    fail "sched-ci: FORGET-BOUND REGRESSION (jobs=%d): memo_size=%d, expected %d" jobs
      (Sched.memo_size s) n;
  (* retire half the block: the memo shrinks to the survivors, exactly *)
  let retired, live = (List.filteri (fun i _ -> i < n / 2) hashes, n - (n / 2)) in
  Sched.forget s retired;
  if Sched.memo_size s <> live then
    fail "sched-ci: FORGET-BOUND REGRESSION (jobs=%d): memo_size=%d after forget, expected %d"
      jobs (Sched.memo_size s) live;
  Sched.forget s hashes;
  if Sched.memo_size s <> 0 then
    fail "sched-ci: FORGET-BOUND REGRESSION (jobs=%d): memo not empty after full forget"
      jobs;
  Sched.shutdown s

let () =
  dedupe_regression ~jobs:1;
  dedupe_regression ~jobs:4;
  forget_bound_regression ~jobs:1;
  forget_bound_regression ~jobs:4;
  print_string "sched-ci: dedupe and forget-bound policies hold (jobs=1 and jobs=4)\n";
  let lanes = [ Fuzz.Oracle.Speculation jobs ] in
  let sw = Fuzz.Oracle.sweep ~lanes ~corpus:"corpus" ~seed ~iters:sweep_iters () in
  Printf.printf "sched-ci: corpus %d runs from %d files\n" sw.corpus.scenarios sw.files;
  Printf.printf "sched-ci: sweep %d iterations (seed %d): %d txs, %d AP fingerprints compared\n%!"
    sweep_iters seed sw.generated.txs sw.generated.fingerprints;
  match Fuzz.Oracle.sweep_problems ~lanes sw with
  | [] -> print_string "sched-ci: jobs=4 and jobs=1 speculation agree everywhere\n"
  | ps ->
    List.iter (Printf.printf "sched-ci: %s\n") ps;
    exit 1

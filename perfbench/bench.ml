(* The workload driver behind BENCHMARK.json.

   Runs one named workload for a wall-clock budget and prints one raw JSON
   document on stdout: set-up times, per-pass phase times with GC deltas
   (plus an Obs registry snapshot per phase when traced), the
   critical-path samples and the outcome of every output check.
   perfbench/run.py builds this executable and turns the document into the
   benchmark's metrics; see perfbench/NOTES.md for the workloads.

     dune build ./perfbench/bench.exe
     _build/default/perfbench/bench.exe --workload airdrop-storm --seed 1 --seconds 25 --trace 0

   Every layer is timed from outside, through public entry points
   ([Node.replay], [Chain.Stf.apply_txs{,_parallel}], [Apstore.*],
   [Ap.Exec.execute], [Evm.Processor.execute_tx], [Sevm.Builder.build],
   [Statedb.commit]) and the Obs instruments lib/ already has. *)

open Core
open State

(* ---- raw JSON ---- *)

let jstr s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let jint = string_of_int
let jfloat f = Printf.sprintf "%.17g" f
let jbool = string_of_bool
let jarr l = "[" ^ String.concat "," l ^ "]"
let jobj kvs = "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) kvs) ^ "}"
let jints l = jarr (List.map jint l)

(* ---- timed phases ---- *)

let now_ns () = Int64.to_int (Clock.now_ns ())
let secs_of_ns ns = float_of_int ns /. 1e9

(* Process CPU time, all domains.  On a host whose vCPUs are descheduled
   in bursts, CPU time leaves the stolen time out where wall time cannot. *)
let cpu_ns () = int_of_float (Sys.time () *. 1e9)

(* CPU time of one run of the reference kernel. *)
let reference () =
  let c0 = cpu_ns () in
  Reference.run ();
  cpu_ns () - c0

type phase = {
  name : string;
  wall_ns : int;
  cpu_ns : int;
  block_cpu_ns : int list;  (** CPU time of each block, where the phase runs block by block *)
  ref_cpu_ns : int list;
      (** [reference] timings: before the phase, then after each block (or
          after the phase, when it does not run block by block) *)
  gc : string;
  obs : string option;
}

(* Run [f] as one timed phase: its wall and CPU time, the GC counters it moved
   (all domains) and, when traced, the Obs registry it filled — reset at
   entry so each snapshot holds exactly this phase.  [f] gets [lap], which
   runs one block and records its CPU time, then times [reference] outside
   it.  A full major collection first, outside the timing, keeps the garbage
   of earlier phases out of this one. *)
let phase ~traced name f =
  if traced then Obs.reset ();
  Gc.full_major ();
  let refs = ref [ reference () ] in
  let laps = ref [] in
  (* the references inside the phase leave its wall and CPU times *)
  let ref_cpu = ref 0 and ref_wall = ref 0 in
  let lap g =
    let c0 = cpu_ns () in
    let r = g () in
    laps := (cpu_ns () - c0) :: !laps;
    let t0 = now_ns () in
    let c = reference () in
    refs := c :: !refs;
    ref_cpu := !ref_cpu + c;
    ref_wall := !ref_wall + (now_ns () - t0);
    r
  in
  let g0 = Gc.quick_stat () in
  let c0 = cpu_ns () in
  let t0 = now_ns () in
  let r = f lap in
  let wall_ns = now_ns () - t0 - !ref_wall in
  let cpu_ns = cpu_ns () - c0 - !ref_cpu in
  let g1 = Gc.quick_stat () in
  if !laps = [] then refs := reference () :: !refs;
  let gc =
    jobj
      [ ("minor_words", jfloat (g1.minor_words -. g0.minor_words));
        ("promoted_words", jfloat (g1.promoted_words -. g0.promoted_words));
        ("minor_collections", jint (g1.minor_collections - g0.minor_collections));
        ("major_collections", jint (g1.major_collections - g0.major_collections)) ]
  in
  ( r,
    { name; wall_ns; cpu_ns; block_cpu_ns = List.rev !laps; ref_cpu_ns = List.rev !refs; gc;
      obs = (if traced then Some (Obs.to_json ()) else None) } )

let phase_json p =
  jobj
    ([ ("name", jstr p.name); ("wall_ns", jint p.wall_ns); ("cpu_ns", jint p.cpu_ns);
       ("block_cpu_ns", jints p.block_cpu_ns); ("ref_cpu_ns", jints p.ref_cpu_ns); ("gc", p.gc) ]
    @ match p.obs with Some o -> [ ("obs", o) ] | None -> [])

(* One pass over the workload's inputs. *)
type iteration = {
  traced : bool;
  phases : phase list;
  crit_ns : int list;  (** critical-path time of every canonical transaction *)
  crit_gas : int;  (** gas of the transactions in [crit_ns] *)
  failed : int list;  (** indices of operations an output check rejected *)
  extra : (string * string) list;  (** workload-specific counts and ratios *)
}

let iteration_json it =
  jobj
    ([ ("traced", jbool it.traced);
       ("phases", jarr (List.map phase_json it.phases));
       ("crit_ns", jints it.crit_ns);
       ("crit_gas", jint it.crit_gas);
       ("failed", jints it.failed) ]
    @ it.extra)

(* ---- imported blocks ---- *)

type block = {
  benv : Evm.Env.block_env;
  txs : Evm.Env.tx list;
  first_op : int;  (** operation index of the block's first transaction *)
  header : (string * int list) option;
      (** where this block ends a recorded one: the recorded header's root and
          the operations of the whole recorded block *)
}

let block_ops b = List.init (List.length b.txs) (fun i -> b.first_op + i)

(* The operations of every block whose computed root disagrees with the
   reference one. *)
let root_failures blocks ~got ~want =
  List.concat
    (List.map2
       (fun (b, g) w -> if String.equal g w then [] else block_ops b)
       (List.combine blocks got) want)

(* The operations of every recorded block whose header root disagrees with
   the root computed where it ends. *)
let header_failures blocks ~got =
  List.concat
    (List.map2
       (fun b g ->
         match b.header with Some (h, ops) when not (String.equal g h) -> ops | Some _ | None -> [])
       blocks got)

let par_jobs () = max 1 (Domain.recommended_domain_count ())

(* Import [blocks] in order from [genesis], each from the root the previous
   one committed: [apply] runs one block on a state at its parent root and
   returns its result, whose first component carries the root.  [lap] times
   each block. *)
let import ~lap apply bk genesis blocks =
  List.rev
    (snd
       (List.fold_left
          (fun (parent, acc) b ->
            let r = lap (fun () -> apply (Statedb.create bk ~root:parent) b) in
            ((fst r).Chain.Stf.state_root, r :: acc))
          (genesis, []) blocks))

let import_seq ~lap bk = import ~lap (fun st b -> (Chain.Stf.apply_txs st b.benv b.txs, ())) bk

(* Parallel import: [nproc] worker domains, static partition on, no AP
   supplier — the same engine as the sequential side.  The pool lives for
   this phase only, created and shut down outside its timing: with one pool
   alive for the whole run, its idle workers made the sequential phases
   take about 35 % more CPU time. *)
let par_import ~traced bk genesis blocks =
  let pool = Chain.Stf.create_pool ~jobs:(par_jobs ()) () in
  Fun.protect ~finally:(fun () -> Chain.Stf.shutdown_pool pool) @@ fun () ->
  phase ~traced "par_import" (fun lap ->
      import ~lap
        (fun st b -> Chain.Stf.apply_txs_parallel ~pool ~static_partition:true st b.benv b.txs)
        bk genesis blocks)

let roots l = List.map (fun ((r : Chain.Stf.block_result), _) -> r.state_root) l
let gas l = List.fold_left (fun a ((r : Chain.Stf.block_result), _) -> a + r.gas_used) 0 l

(* Counts both imports report: the gas each side committed and the
   parallel scheduler's totals. *)
let import_extra seq par =
  let stats = List.map snd par in
  let sum f = List.fold_left (fun a (s : Chain.Stf.par_stats) -> a + f s) 0 stats in
  [ ("import_gas", jint (gas seq));
    ("par_gas", jint (gas par));
    ("par_txs", jint (sum (fun s -> s.par_txs)));
    ("par_aborted", jint (sum (fun s -> s.par_aborted)));
    ("par_forced", jint (sum (fun s -> s.par_forced)));
    ("par_static_serial", jint (sum (fun s -> s.par_static_serial))) ]

(* ---- set-up ---- *)

type setup = {
  ops : int;  (** canonical transactions: the operations checks count *)
  blocks : block list;
  setup_ns : (int * int) list;  (** (CPU, wall) time of each set-up *)
  setup_ref_ns : int list;  (** [reference] timings around the set-ups *)
  genesis_ns : int;  (** CPU time of a standalone genesis build of the same state *)
  info : (string * string) list;
  iterate : traced:bool -> iteration;
}

(* Build the inputs identically (they depend on the seed alone) at least
   three times and until three CPU seconds have gone, at most 60 times, and
   keep the last copy: a cheap set-up gets enough repeats for a steady
   median.  [reference] is timed before the first set-up and after each. *)
let repeat_setup f =
  let rec go acc refs spent =
    let c0 = cpu_ns () and t0 = now_ns () in
    let r = f () in
    let c = cpu_ns () - c0 in
    let acc = (c, now_ns () - t0) :: acc and spent = spent + c in
    let refs = reference () :: refs in
    let n = List.length acc in
    if n >= 60 || (n >= 3 && spent >= 3_000_000_000) then (r, List.rev acc, List.rev refs)
    else go acc refs spent
  in
  go [] [ reference () ] 0

let cpu_time f =
  let c0 = cpu_ns () in
  ignore (f ());
  cpu_ns () - c0

(* ---- DiCE traffic replayed by the node (dice-l1, transfer-import) ---- *)

let canonical_blocks (record : Netsim.Record.t) =
  Array.to_list record.events
  |> List.filter_map (function
       | Netsim.Record.Block (_, b) when Netsim.Record.is_canonical record b -> Some b
       | Netsim.Record.Block _ | Netsim.Record.Heard _ | Netsim.Record.Tick _ -> None)
  |> List.sort (fun (a : Chain.Block.t) b -> compare a.header.number b.header.number)

let outcome_name = function
  | Node.O_perfect -> "perfect"
  | Node.O_imperfect -> "imperfect"
  | Node.O_missed -> "missed"
  | Node.O_unheard -> "unheard"

let canonical_gas (r : Node.result) =
  let t = Hashtbl.create 4096 in
  List.iter (fun (x : Node.tx_record) -> if x.canonical then Hashtbl.replace t x.hash x.gas_used) r.txs;
  t

(* Cut the observer feed right after the first canonical block that brings
   the canonical transaction count to [target], so a run replays about
   [target] operations whatever the seed's block timing was.  Transactions
   heard after that block, and those heard before it that no canonical block
   up to it includes, would only ever be speculated, never executed: they
   are dropped from the feed.  With them, a seed whose last block came late
   left a backlog of about 270 such transactions, and the node's CPU time
   per canonical transaction followed the backlog (13 % apart on two seeds)
   while its time per heard transaction stayed within 4 %. *)
let trim (record : Netsim.Record.t) ~target =
  let n = ref 0 and cut = ref (Array.length record.events) in
  let included = Hashtbl.create (2 * target) in
  Array.iteri
    (fun i ev ->
      match ev with
      | Netsim.Record.Block (_, b) when !n < target && Netsim.Record.is_canonical record b ->
        n := !n + List.length b.txs;
        List.iter (fun tx -> Hashtbl.replace included (Evm.Env.tx_hash tx) ()) b.txs;
        if !n >= target then cut := i + 1
      | Netsim.Record.Block _ | Netsim.Record.Heard _ | Netsim.Record.Tick _ -> ())
    record.events;
  let events =
    Array.sub record.events 0 !cut
    |> Array.to_list
    |> List.filter (function
         | Netsim.Record.Heard (_, tx) -> Hashtbl.mem included (Evm.Env.tx_hash tx)
         | Netsim.Record.Block _ | Netsim.Record.Tick _ -> true)
  in
  { record with events = Array.of_list events }

(* Imports run a recorded block in pieces of at most [import_block_txs]
   transactions, each under the recorded block's environment, so the amount
   of work a commit amortises does not depend on the seed's block timing (a
   1000-transaction trace came in 3 blocks on one seed and 7 on another).
   Fees go to the recorded coinbase, so the last piece ends at the header's
   root. *)
let import_block_txs = 100

let split_block ~first (b : Chain.Block.t) =
  let benv = Chain.Stf.block_env_of_header b.header ~block_hash:(fun n -> U256.of_int64 n) in
  let header = Some (b.header.state_root, List.init (List.length b.txs) (fun i -> first + i)) in
  let rec pieces first txs =
    if List.length txs <= import_block_txs then [ { benv; txs; first_op = first; header } ]
    else
      let piece = List.filteri (fun i _ -> i < import_block_txs) txs in
      let rest = List.filteri (fun i _ -> i >= import_block_txs) txs in
      { benv; txs = piece; first_op = first; header = None } :: pieces (first + import_block_txs) rest
  in
  pieces first b.txs

let replay_setup ~target (params : Netsim.Sim.params) =
  let record, setup_ns, setup_ref_ns =
    repeat_setup (fun () -> trim (Netsim.Sim.run ~params ()) ~target)
  in
  let genesis_ns =
    cpu_time (fun () ->
        let pop =
          Workload.Population.make ~n_users:params.n_users ~n_observers:params.n_observers
        in
        Workload.Population.genesis pop (Statedb.Backend.create ()))
  in
  let bk = record.backend in
  let cblocks = canonical_blocks record in
  let blocks, ops =
    List.fold_left
      (fun (acc, first) (b : Chain.Block.t) ->
        (List.rev_append (split_block ~first b) acc, first + List.length b.txs))
      ([], 0) cblocks
    |> fun (acc, n) -> (List.rev acc, n)
  in
  let op_of_hash = Hashtbl.create (2 * ops) in
  List.iter
    (fun b -> List.iteri (fun i tx -> Hashtbl.replace op_of_hash (Evm.Env.tx_hash tx) (b.first_op + i)) b.txs)
    blocks;
  let heard = Hashtbl.create 4096 in
  Array.iter
    (function
      | Netsim.Record.Heard (_, tx) -> Hashtbl.replace heard (Evm.Env.tx_hash tx) ()
      | Netsim.Record.Block _ | Netsim.Record.Tick _ -> ())
    record.events;
  let iterate ~traced =
    let fr, p_fr = phase ~traced "forerunner" (fun _ -> Node.replay ~policy:Node.Forerunner record) in
    let bl, p_bl = phase ~traced "baseline" (fun _ -> Node.replay ~policy:Node.Baseline record) in
    let genesis = record.genesis_root in
    let seq_r, p_imp = phase ~traced "import" (fun lap -> import_seq ~lap bk genesis blocks) in
    let par, p_par = par_import ~traced bk genesis blocks in
    (* Forerunner must charge every canonical transaction the gas the plain
       EVM charges it, and execute exactly the ones Baseline executes.  Both
       skip a block that arrives before its parent (the node drops orphans
       and never fetches the parent), so neither runs its transactions:
       those are counted as unexecuted, and the imports still check them. *)
    let g_fr = canonical_gas fr and g_bl = canonical_gas bl in
    let gas_failed, unexecuted =
      Hashtbl.fold
        (fun h i (failed, unexecuted) ->
          match (Hashtbl.find_opt g_fr h, Hashtbl.find_opt g_bl h) with
          | Some a, Some b when a = b -> (failed, unexecuted)
          | None, None -> (failed, unexecuted + 1)
          | _ -> (i :: failed, unexecuted))
        op_of_hash ([], 0)
    in
    let seq = roots seq_r and par_roots = roots par in
    let failed =
      List.sort_uniq compare
        (gas_failed
        @ header_failures blocks ~got:seq
        @ root_failures blocks ~got:par_roots ~want:seq
        @ header_failures blocks ~got:par_roots)
    in
    let canon = List.filter (fun (x : Node.tx_record) -> x.canonical) fr.txs in
    let s = Metrics.summarize ~baseline:bl fr in
    let outcomes =
      List.map
        (fun o ->
          (outcome_name o, jint (List.length (List.filter (fun (x : Node.tx_record) -> x.outcome = o) canon))))
        [ Node.O_perfect; Node.O_imperfect; Node.O_missed; Node.O_unheard ]
    in
    let table3 =
      List.map
        (fun (r : Metrics.outcome_row) ->
          jobj [ ("label", jstr r.label); ("tx_pct", jfloat r.tx_pct);
                 ("weighted_pct", jfloat r.weighted); ("speedup", jfloat r.speedup_) ])
        (Metrics.outcome_breakdown ~baseline:bl fr)
    in
    {
      traced;
      phases = [ p_fr; p_bl; p_imp; p_par ];
      crit_ns = List.map (fun (x : Node.tx_record) -> x.exec_ns) canon;
      crit_gas = List.fold_left (fun a (x : Node.tx_record) -> a + x.gas_used) 0 canon;
      failed;
      extra =
        [ ("node_txs", jint (List.length canon));
          ("unexecuted", jint unexecuted);
          ("satisfied_pct", jfloat s.satisfied_pct);
          ("effective_speedup", jfloat s.effective_speedup);
          ("e2e_speedup", jfloat s.e2e_speedup);
          ("outcomes", jobj outcomes);
          ("table3", jarr table3);
          ("spec_to_exec_ratio", jfloat (Metrics.overhead fr).spec_to_exec_ratio) ]
        @ import_extra seq_r par;
    }
  in
  {
    ops;
    blocks;
    setup_ns;
    setup_ref_ns;
    genesis_ns;
    info =
      [ ("sim_duration_s", jfloat params.duration);
        ("replayed_events", jint (Array.length record.events));
        ("heard_txs", jint (Hashtbl.length heard));
        ("recorded_blocks", jint (List.length cblocks));
        ("par_jobs", jint (par_jobs ())) ];
    iterate;
  }

(* dice-l1: the paper's L1 traffic shape (Table 2), long enough for about
   1000 canonical transactions — the samples p99 needs. *)
let dice_l1 ~seed =
  replay_setup ~target:1000 { Netsim.Sim.default_params with seed; duration = 180.0 }

(* transfer-import: the low-conflict ETH-transfer shape of the scheduler
   bench (2000 users, 14 tx/s). *)
let transfer_import ~seed =
  replay_setup ~target:1000
    {
      Netsim.Sim.default_params with
      seed;
      duration = 200.0;
      tx_rate = 14.0;
      n_users = 2000;
      mix = [ (Workload.Gen.Eth_transfer, 1.0) ];
    }

(* ---- airdrop-storm: served through the template store ---- *)

let storm_txs = 2000
let storm_block_txs = 200
let storm_senders = 64
let storm_token = Address.of_int 0x70C0

(* The store traces each template at the gas limit of its first miss, and
   the builder's envelope guard rejects every served limit below it, so the
   storm's hit rate is decided by its first transaction's limit.  The
   storm seed is the first one from [1000 * seed] on whose first
   transaction draws the top limit level — the case the repository's own
   apstore bench (seed 31337) hits — so every seed shows that defect the
   same way and [satisfied_pct] stays comparable across seeds. *)
let storm_seed seed =
  let top = Array.fold_left max 0 Workload.Airdrop.gas_limit_levels in
  let rec find s =
    let storm = Workload.Airdrop.create ~n_senders:storm_senders ~seed:s ~token:storm_token () in
    if (Workload.Airdrop.tx storm).gas_limit = top then s else find (s + 1)
  in
  find (1000 * seed)

let storm_benv i : Evm.Env.block_env =
  {
    coinbase = Address.of_int 0xC0FFEE;
    timestamp = Int64.add 1_700_000_000L (Int64.of_int (13 * i));
    number = Int64.of_int (i + 1);
    difficulty = U256.one;
    gas_limit = 30_000_000;
    chain_id = 1;
    block_hash = (fun n -> U256.of_int64 n);
  }

(* Pre-execute [tx] with the tracer on a snapshot and lift the trace into
   a template AP — the speculation a miss pays off the critical path. *)
let build_template st benv tx =
  let snap = Statedb.snapshot st in
  let sink, get = Evm.Trace.collector () in
  let receipt = Evm.Processor.execute_tx ~trace:sink st benv tx in
  Statedb.revert st snap;
  match Sevm.Builder.build ~template:true tx benv (get ()) receipt st with
  | Ok path ->
    let ap = Ap.Program.create () in
    Ap.Program.add_path ap path;
    Some ap
  | Error _ -> None

type serve_acc = {
  mutable crit : int list;
  mutable key : int list;
  mutable ap : int list;
  mutable fallback : int list;
  mutable gas : int;
  mutable hits : int;
  mutable violations : int;
  mutable builds : int;
  mutable build_ns : int;
}

(* Serve every block through the store: [key_of_tx] -> [find] ->
   [Ap.Exec.execute], with EVM fallback; a miss first reserves the key and
   builds + publishes the template.  Each block ends in [Statedb.commit].
   A serve's critical path is key + find + execution (fallback included);
   the template build is speculation and stays outside it. *)
let serve_storm ~lap bk genesis blocks =
  let spec = !Spec.current in
  let store = Apstore.create () in
  let acc =
    { crit = []; key = []; ap = []; fallback = []; gas = 0; hits = 0; violations = 0;
      builds = 0; build_ns = 0 }
  in
  let serve st benv tx =
    let t0 = now_ns () in
    let key = Apstore.key_of_tx st spec tx in
    let t1 = now_ns () in
    let tp = match key with Some k -> Apstore.find store k | None -> None in
    let t2 = now_ns () in
    (match (key, tp) with
    | Some k, None when Apstore.reserve store k -> (
      acc.builds <- acc.builds + 1;
      match build_template st benv tx with
      | Some ap -> Apstore.publish store k ap
      | None -> Apstore.abandon store k)
    | _ -> ());
    let t3 = now_ns () in
    let receipt, via_ap =
      match tp with
      | Some ap -> (
        match Ap.Exec.execute ap st benv tx with
        | Ap.Exec.Hit (r, _) -> (r, true)
        | Ap.Exec.Violation ->
          acc.violations <- acc.violations + 1;
          (Evm.Processor.execute_tx st benv tx, false))
      | None -> (Evm.Processor.execute_tx st benv tx, false)
    in
    let t4 = now_ns () in
    acc.build_ns <- acc.build_ns + (t3 - t2);
    acc.crit <- (t2 - t0 + (t4 - t3)) :: acc.crit;
    acc.key <- (t1 - t0) :: acc.key;
    if via_ap then begin
      acc.hits <- acc.hits + 1;
      acc.ap <- (t4 - t3) :: acc.ap
    end
    else acc.fallback <- (t4 - t3) :: acc.fallback;
    acc.gas <- acc.gas + receipt.Evm.Processor.gas_used
  in
  let _, roots =
    List.fold_left
      (fun (root, roots) b ->
        let root =
          lap (fun () ->
              let st = Statedb.create bk ~root in
              List.iter (serve st b.benv) b.txs;
              Statedb.commit st)
        in
        (root, root :: roots))
      (genesis, []) blocks
  in
  (List.rev roots, acc)

let airdrop_storm ~seed =
  let sseed = storm_seed seed in
  let make () =
    let storm =
      Workload.Airdrop.create ~n_senders:storm_senders ~seed:sseed ~token:storm_token ()
    in
    let txs = List.init storm_txs (fun _ -> Workload.Airdrop.tx storm) in
    let rec cut i first txs =
      match txs with
      | [] -> []
      | _ ->
        let blk = List.filteri (fun j _ -> j < storm_block_txs) txs in
        let rest = List.filteri (fun j _ -> j >= storm_block_txs) txs in
        (i, first, blk) :: cut (i + 1) (first + List.length blk) rest
    in
    let genesis () = Workload.Airdrop.genesis storm (Statedb.Backend.create ()) in
    (cut 0 0 txs, storm, genesis ())
  in
  let (cuts, storm, _), setup_ns, setup_ref_ns = repeat_setup make in
  let fresh () =
    let bk = Statedb.Backend.create () in
    (bk, Workload.Airdrop.genesis storm bk)
  in
  let genesis_ns = cpu_time fresh in
  let blocks = List.map (fun (i, first_op, txs) -> { benv = storm_benv i; txs; first_op; header = None }) cuts in
  let iterate ~traced =
    (* every path gets its own fresh backend, built outside the timing *)
    let bk_s, g_s = fresh () in
    let (served, acc), p_serve = phase ~traced "serve" (fun lap -> serve_storm ~lap bk_s g_s blocks) in
    let bk_i, g_i = fresh () in
    let seq_r, p_imp = phase ~traced "import" (fun lap -> import_seq ~lap bk_i g_i blocks) in
    let bk_p, g_p = fresh () in
    let par, p_par = par_import ~traced bk_p g_p blocks in
    (* the storm has no recorded headers: the plain import is the reference *)
    let seq = roots seq_r and par_roots = roots par in
    let failed =
      List.sort_uniq compare
        (root_failures blocks ~got:served ~want:seq
        @ root_failures blocks ~got:par_roots ~want:seq)
    in
    let n = List.length acc.crit in
    {
      traced;
      phases = [ p_serve; p_imp; p_par ];
      crit_ns = acc.crit;
      crit_gas = acc.gas;
      failed;
      extra =
        [ ("node_txs", jint n);
          ("satisfied_pct", jfloat (100.0 *. float_of_int acc.hits /. float_of_int (max 1 n)));
          ("violations", jint acc.violations);
          ("builds", jint acc.builds);
          ("build_ns", jint acc.build_ns);
          ("key_ns", jints acc.key);
          ("ap_ns", jints acc.ap);
          ("fallback_ns", jints acc.fallback) ]
        @ import_extra seq_r par;
    }
  in
  {
    ops = storm_txs;
    blocks;
    setup_ns;
    setup_ref_ns;
    genesis_ns;
    info =
      [ ("storm_seed", jint sseed);
        ("storm_txs", jint storm_txs);
        ("block_txs", jint storm_block_txs);
        ("gas_limit_levels", jints (Array.to_list Workload.Airdrop.gas_limit_levels));
        ("par_jobs", jint (par_jobs ())) ];
    iterate;
  }

(* ---- driver ---- *)

let workloads = [ ("dice-l1", dice_l1); ("airdrop-storm", airdrop_storm); ("transfer-import", transfer_import) ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: dice-l1, airdrop-storm, transfer-import";
  exit 2

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  let make = match List.assoc_opt workload workloads with Some f -> f | None -> usage () in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  (workload, make, int "seed", float_of_int (int "seconds"), trace)

let () =
  let workload, make, seed, seconds, trace = parse_args () in
  Obs.set_enabled false;
  let s = make ~seed in
  let t_start = now_ns () in
  let elapsed () = secs_of_ns (now_ns () - t_start) in
  let iters = ref [] in
  (* Untraced runs iterate on the budget; traced runs alternate untraced and
     traced passes (the overhead ratio needs both) and make at least two. *)
  let more () =
    let k = List.length !iters in
    k = 0 || (trace && k < 2) || elapsed () < seconds
  in
  let error =
    try
      while more () do
        let traced = trace && List.length !iters mod 2 = 1 in
        Obs.set_enabled traced;
        let it = Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () -> s.iterate ~traced) in
        iters := it :: !iters
      done;
      None
    with e -> Some (Printexc.to_string e)
  in
  let gc = Gc.quick_stat () in
  print_string
    (jobj
       ([ ("workload", jstr workload);
          ("seed", jint seed);
          ("seconds", jfloat seconds);
          ("trace", jbool trace);
          ("ops", jint s.ops);
          ("blocks", jint (List.length s.blocks));
          ("setup_cpu_ns", jints (List.map fst s.setup_ns));
          ("setup_wall_ns", jints (List.map snd s.setup_ns));
          ("setup_ref_cpu_ns", jints s.setup_ref_ns);
          ("genesis_ns", jint s.genesis_ns);
          ("measured_s", jfloat (elapsed ()));
          ("run_failed", jbool (error <> None));
          ("error", match error with Some e -> jstr e | None -> "null");
          ("heap_top_bytes", jint (gc.top_heap_words * (Sys.word_size / 8)));
          ("info", jobj s.info);
          ("iterations", jarr (List.rev_map iteration_json !iters)) ]));
  print_newline ()

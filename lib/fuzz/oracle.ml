(* The differential oracle (DESIGN.md §15).  A world — a fuzz scenario or
   one raw-bytecode call — is installed once and executed once by the
   reference: the decoded interpreter on a fresh statedb per transaction,
   committing after each.  Every lane then re-executes against the
   reference's per-transaction pre-state roots and reports through one
   receipt/root comparator:

     Legacy         the legacy match-dispatch interpreter;
     Replay         S-EVM synthesis + linear path replay;
     Ap             AP compile + fast path: satisfied with and without
                    memoization, a perturbed context (one constrained slot
                    changed: a Hit must match the EVM there, a Violation
                    must leave the state untouched for fallback), and a
                    path built warm but replayed cold (must violate);
     Verifier       the static verifier over every built path and program;
     Footprint      bca's static footprint must cover the runtime touch log
                    and change set, and each calldata-independence claim
                    must survive a witness flip;
     Speculation n  scheduler speculation at jobs=1 vs jobs=n: identical
                    AP fingerprints, outcomes and receipts;
     Apply n        the sequential block apply and the conflict-aware
                    parallel one at jobs=1 and n: every receipt and the
                    block root as the reference.

   Legacy, Replay and the memoized Ap run are *carried*: each runs the whole
   batch on one statedb committed after every transaction, the way block
   import and the node's AP execution share one statedb, so state an engine
   leaves behind shows up in the next transaction's comparison.

   A seeded fault ([with_fault]) breaks one component on purpose; each fault
   has the lane that must catch it ([caught]).  Builder "Unsupported" is not
   a finding: the node falls back to the EVM there, and so do we (counted). *)

open State

type lane =
  | Legacy
  | Replay
  | Ap
  | Verifier
  | Footprint
  | Speculation of int
  | Apply of int

let lane_name = function
  | Legacy -> "legacy"
  | Replay -> "replay"
  | Ap -> "ap"
  | Verifier -> "verifier"
  | Footprint -> "footprint"
  | Speculation n -> Printf.sprintf "speculation(jobs=%d)" n
  | Apply n -> Printf.sprintf "apply(jobs=%d)" n

(* the conformance lanes behind `forerunner fuzz` and @fuzz *)
let conformance = [ Legacy; Replay; Ap; Verifier ]

type finding = { ctx : string; lane : string; field : string; detail : string }

let pp_finding ppf f = Fmt.pf ppf "%s [%s] %s: %s" f.ctx f.lane f.field f.detail

type report = {
  mutable scenarios : int;
  mutable txs : int;
  mutable fallbacks : int;  (** builder Unsupported: EVM fallback *)
  mutable perturbed_hits : int;
  mutable perturbed_violations : int;
  mutable warm_violations : int;
      (** warm-built paths that correctly tripped a warmth guard cold *)
  mutable programs : int;  (** APs verified *)
  mutable fingerprints : int;  (** AP fingerprints compared across jobs counts *)
  mutable touches : int;  (** runtime reads tested against footprints *)
  mutable changes : int;  (** committed changes tested against write sets *)
  mutable wild : int;  (** predictions that collapsed to the wild footprint *)
  mutable flips : int;  (** calldata witness re-executions *)
  mutable aborts : int;  (** parallel-apply conflict aborts *)
  mutable forced : int;  (** parallel-apply forced sequential reruns *)
  mutable findings : finding list;
}

let empty () =
  { scenarios = 0; txs = 0; fallbacks = 0; perturbed_hits = 0; perturbed_violations = 0;
    warm_violations = 0; programs = 0; fingerprints = 0; touches = 0; changes = 0;
    wild = 0; flips = 0; aborts = 0; forced = 0; findings = [] }

let merge a b =
  { scenarios = a.scenarios + b.scenarios; txs = a.txs + b.txs;
    fallbacks = a.fallbacks + b.fallbacks; perturbed_hits = a.perturbed_hits + b.perturbed_hits;
    perturbed_violations = a.perturbed_violations + b.perturbed_violations;
    warm_violations = a.warm_violations + b.warm_violations; programs = a.programs + b.programs;
    fingerprints = a.fingerprints + b.fingerprints; touches = a.touches + b.touches;
    changes = a.changes + b.changes; wild = a.wild + b.wild; flips = a.flips + b.flips;
    aborts = a.aborts + b.aborts; forced = a.forced + b.forced;
    findings = a.findings @ b.findings }

(* The items a lane compared; a CI sweep whose lane compared none checked
   nothing.  Replay and Ap compare only transactions the builder took. *)
let checked r = function
  | Legacy | Apply _ -> r.txs
  | Replay | Ap -> r.txs - r.fallbacks
  | Verifier -> r.programs
  | Speculation _ -> r.fingerprints
  | Footprint -> min r.touches (min r.changes r.flips)

let unchecked ~lanes r = List.filter (fun l -> checked r l = 0) lanes

(* ---- seeded faults ---- *)

type fault =
  | Add  (** the AP executor computes a+b+1 for every ADD *)
  | Drop_guard  (** every built path loses its first guard *)
  | Narrow of Bca.narrowing  (** one bca analysis domain made unsound *)

let fault_name = function
  | Add -> "add"
  | Drop_guard -> "drop-guard"
  | Narrow n -> Bca.narrowing_name n

(* The only code that sets the process-wide test switches.  The add_path
   hook is silenced because the test suite installs a raising verifier
   there, which would fire on the broken programs before the verifier lane
   could report them. *)
let with_fault fault f =
  let add = !Ap.Exec.miscompile_add_for_tests
  and hook = !Ap.Program.add_path_hook
  and narrow = !Bca.seeded_narrowing in
  Ap.Exec.miscompile_add_for_tests := fault = Add;
  Ap.Program.add_path_hook := (fun _ -> ());
  Bca.seeded_narrowing := (match fault with Narrow n -> Some n | Add | Drop_guard -> None);
  Fun.protect f ~finally:(fun () ->
      Ap.Exec.miscompile_add_for_tests := add;
      Ap.Program.add_path_hook := hook;
      Bca.seeded_narrowing := narrow)

(* One handcrafted sentinel per narrowable bca domain: a minimal contract
   whose soundness hinges on exactly that domain, so the narrowing surfaces
   even if a random sweep dodges it.  Unnarrowed, each is a clean case. *)
let sentinel_name = function
  | Bca.N_cfg -> "cfg-taken-branch"
  | Bca.N_stack -> "stack-dup-key"
  | Bca.N_footprint -> "footprint-sstore"
  | Bca.N_calldata -> "calldata-eq-branch"

let sentinel_label n = "sentinel:" ^ sentinel_name n
let narrowings = [ Bca.N_cfg; N_stack; N_footprint; N_calldata ]

(* The fault -> lane table: the findings by which a fault's lane reports
   it; the fault is caught when there is at least one. *)
let expected fault (f : finding) =
  let kind k = f.lane = "verifier" && f.field = Analysis.Report.kind_name k in
  match fault with
  | Add -> kind Analysis.Report.Memo_soundness
  | Drop_guard -> kind Analysis.Report.Guard_coverage
  | Narrow n -> f.lane = "footprint" && String.starts_with ~prefix:(sentinel_label n ^ " ") f.ctx

let caught fault r = List.exists (expected fault) r.findings

(* ---- worlds ---- *)

type world = {
  label : string;
  spec : Spec.t;
  bk : Statedb.Backend.t;
  root0 : string;
  txs : Evm.Env.tx array;
  universe : Address.t list;  (** every account the world can touch *)
}

let benv = Scenario.benv

let of_scenario ~label (s : Scenario.t) =
  let spec = Scenario.spec_of s in
  let bk = Statedb.Backend.create () in
  let root0 = Scenario.install s bk in
  { label = Printf.sprintf "%s [%s]" label spec.Spec.name; spec; bk; root0;
    txs = Array.of_list (Scenario.txs s);
    universe =
      List.init Scenario.n_senders Scenario.sender_addr
      @ List.mapi (fun i _ -> Scenario.contract_addr i) s.contracts
      @ [ benv.coinbase ] }

let code_sender = Address.of_int 0xD1FF
let code_target = Address.of_int 0xC0DE0

(* The one raw-bytecode setup: a funded sender, [code] installed at one
   address, and a single call into it. *)
let of_code ?(spec = !Spec.current) ~label ~data code =
  let bk = Statedb.Backend.create () in
  let st = Statedb.create bk ~root:Statedb.empty_root in
  Statedb.set_balance st code_sender Scenario.sender_funds;
  Statedb.set_code st code_target code;
  { label; spec; bk; root0 = Statedb.commit st;
    txs =
      [| { sender = code_sender; to_ = Some code_target; nonce = 0; value = U256.zero; data;
           gas_limit = 300_000; gas_price = Scenario.gas_price } |];
    universe = [ code_sender; code_target; benv.coinbase ] }

let sentinel n =
  let open Evm.Asm in
  let abi_word v = String.make 31 '\000' ^ String.make 1 (Char.chr v) in
  let code, data =
    match n with
    | Bca.N_cfg ->
      (* the SSTORE lives only on the always-taken JUMPI edge, which the
         narrowing drops *)
      ( assemble
          ([ push_int 1 ] @ jumpi "w"
          @ [ op STOP; label "w"; push_int 7; push_int 3; op SSTORE; op STOP ]),
        "" )
    | Bca.N_stack ->
      (* the key is a DUP1 copy, which the narrowing corrupts to zero *)
      (assemble [ push_int 5; op (DUP 1); op SSTORE; op STOP ], "")
    | Bca.N_footprint ->
      (* a plain constant-key SSTORE, which the narrowing ignores *)
      (assemble [ push_int 9; push_int 2; op SSTORE; op STOP ], "")
    | Bca.N_calldata ->
      (* control flow branches on ABI word 0; the narrowing claims no
         calldata word reaches control flow, so the witness flip diverges *)
      ( assemble
          ([ push_int 4; op CALLDATALOAD; push_int 42; op EQ ] @ jumpi "t"
          @ [ op STOP; label "t"; push_int 1; push_int 0; op SSTORE; op STOP ]),
        "\000\000\000\000" ^ abi_word 42 )
  in
  of_code ~label:(sentinel_label n) ~data code

(* ---- execution ---- *)

type step = {
  pre : string;  (** root the transaction ran against *)
  receipt : Evm.Processor.receipt;
  post : string;  (** committed root after it *)
  touches : Statedb.touch list;  (** with [~track] only *)
  changes : Statedb.change list;  (** with [~track] only *)
  steps : int;  (** executed steps, with [~track] only *)
}

let fresh w root = Statedb.create w.bk ~root

(* Run [tx] on [st] (default: a fresh cold view of [root]) and commit.
   [~track] records the cold-read touch log, the change set and the step
   count for the footprint lane. *)
let execute ?(engine = Evm.Interp.Decoded) ?(track = false) ?st w ~root tx =
  let st = match st with Some st -> st | None -> fresh w root in
  Statedb.set_tracking st track;
  let steps = ref 0 in
  let count_step = function Evm.Trace.Call_exit _ -> () | _ -> incr steps in
  let trace = if track then Some count_step else None in
  let mark = Statedb.snapshot st in
  let receipt = Evm.Processor.execute_tx ~engine ~spec:w.spec ?trace st benv tx in
  let changes = if track then Statedb.changes_since st mark else [] in
  let touches = if track then Statedb.touches st else [] in
  { pre = root; receipt; post = Statedb.commit st; touches; changes; steps = !steps }

(* ---- the comparator ---- *)

let fingerprint st addr =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (U256.to_hex (Statedb.get_balance st addr));
  Buffer.add_string buf
    (Printf.sprintf "/n%d/c%d" (Statedb.get_nonce st addr)
       (String.length (Statedb.get_code st addr)));
  for slot = 0 to Scenario.n_slots - 1 do
    let v = Statedb.get_storage st addr (U256.of_int slot) in
    if not (U256.is_zero v) then
      Buffer.add_string buf (Printf.sprintf "/s%d=%s" slot (U256.to_hex v))
  done;
  Buffer.contents buf

(* Accounts whose fingerprint changed from [pre] to [post], with their
   post-state fingerprints. *)
let touched_set w ~pre ~post =
  let stp = fresh w pre and stq = fresh w post in
  List.filter_map
    (fun a ->
      let p = fingerprint stp a and q = fingerprint stq a in
      if String.equal p q then None else Some (Address.to_hex a ^ ":" ^ q))
    w.universe

(* Given [(pre, expected, got)] committed roots: nothing when they agree,
   else the touched-account sets that differ. *)
let root_diff w ~ctx ~lane (pre, ra, rb) =
  if String.equal ra rb then []
  else
    let ta = touched_set w ~pre ~post:ra and tb = touched_set w ~pre ~post:rb in
    let field, detail =
      if ta <> tb then
        ( "touched_accounts",
          Fmt.str "{%a} vs {%a}" Fmt.(list ~sep:comma string) ta Fmt.(list ~sep:comma string) tb )
      else ("state_root", "roots differ but account fingerprints agree (trie-level skew)")
    in
    [ { ctx; lane; field; detail } ]

(* The one comparator: every receipt field, then the roots if given. *)
let diff w ~ctx ~lane ?roots (a : Evm.Processor.receipt) (b : Evm.Processor.receipt) =
  let f field detail = Some { ctx; lane; field; detail } in
  let logs = Fmt.(list Evm.Env.pp_log) and hex = Sexp.hex_of_string in
  List.filter_map Fun.id
    [ (if Evm.Processor.status_equal a.status b.status then None
       else
         f "status"
           (Fmt.str "%a vs %a" Evm.Processor.pp_status a.status Evm.Processor.pp_status b.status));
      (if a.gas_used = b.gas_used then None
       else f "gas_used" (Fmt.str "%d vs %d" a.gas_used b.gas_used));
      (if String.equal a.output b.output then None
       else f "output" (Fmt.str "%s vs %s" (hex a.output) (hex b.output)));
      (if List.length a.logs = List.length b.logs && List.for_all2 Evm.Env.log_equal a.logs b.logs
       then None
       else f "logs" (Fmt.str "%a vs %a" logs a.logs logs b.logs)) ]
  @ match roots with Some roots -> root_diff w ~ctx ~lane roots | None -> []

(* ---- building ---- *)

(* A path built at [root] the speculator's way — trace, revert, synthesize —
   with its first guard dropped when [Drop_guard] is seeded. *)
let build ?fault ?(prewarm = []) w ~root tx =
  let st = fresh w root and spec = w.spec in
  let snap = Statedb.snapshot st and sink, get = Evm.Trace.collector () in
  let receipt = Evm.Processor.execute_tx ~spec ~prewarm ~trace:sink st benv tx in
  Statedb.revert st snap;
  match Sevm.Builder.build ~spec ~prewarm tx benv (get ()) receipt st with
  | Ok p when fault = Some Drop_guard -> Ok (Option.value (Analysis.Mutate.drop_guard p) ~default:p)
  | r -> r

let compile path =
  let ap = Ap.Program.create () in
  Ap.Program.add_path ap path;
  ap

(* Storage slot to perturb: prefer one the constraint section depends on
   (flipping it must trip a guard); else any storage read (fast-path reads
   evaluate live, so a Hit must still match the EVM on the perturbed
   state). *)
let constrained_slot (p : Sevm.Ir.path) =
  let found = ref None in
  (try
     Array.iteri
       (fun i ins ->
         match ins with
         | Sevm.Ir.Read (_, Sevm.Ir.R_storage (addr, key)) ->
           if i < p.first_fast then begin
             found := Some (addr, key);
             raise Exit
           end
           else if !found = None then found := Some (addr, key)
         | _ -> ())
       p.instrs
   with Exit -> ());
  !found

(* One byte of [data] inside [off..off+len) flipped to a different nonzero
   value — the zero/nonzero pattern, hence intrinsic gas, is unchanged.
   None when the window holds no nonzero byte. *)
let flip_nonzero data ~off ~len =
  let hi = min (off + len) (String.length data) in
  let rec find i = if i >= hi then None else if data.[i] <> '\000' then Some i else find (i + 1) in
  Option.map
    (fun i ->
      String.mapi (fun j c -> if j = i then if c = '\001' then '\002' else '\001' else c) data)
    (find off)

let pp_touch ppf = function
  | Statedb.T_account a -> Fmt.pf ppf "account %s" (Address.to_hex a)
  | Statedb.T_code a -> Fmt.pf ppf "code %s" (Address.to_hex a)
  | Statedb.T_slot (a, k) -> Fmt.pf ppf "slot %s[%s]" (Address.to_hex a) (U256.to_hex k)

(* ---- the oracle ---- *)

(* One speculation job per transaction, each on a private view of the
   reference's pre-state root, through the scheduler at [jobs]; results
   drained in submission order. *)
let speculate ?fault w (reference : step array) ~jobs =
  let job (tx : Evm.Env.tx) root () =
    match build ?fault w ~root tx with
    | Error _ -> (None, "fallback", Some (execute w ~root tx).receipt)
    | Ok path -> (
      let ap = compile path in
      let fp = Some (Ap.Program.fingerprint ap) in
      match Ap.Exec.execute ~spec:w.spec ap (fresh w root) benv tx with
      | Ap.Exec.Violation -> (fp, "violation", None)
      | Ap.Exec.Hit (receipt, _) -> (fp, "hit", Some receipt))
  in
  let sched = Sched.create ~jobs () in
  Fun.protect ~finally:(fun () -> Sched.shutdown sched) @@ fun () ->
  Array.iteri
    (fun i (tx : Evm.Env.tx) ->
      let root = reference.(i).pre in
      Sched.submit sched ~hash:(Evm.Env.tx_hash tx) ~priority:tx.gas_price (job tx root))
    w.txs;
  Sched.barrier sched;
  Sched.drain sched
  |> List.map (fun (r : _ Sched.result) ->
         match r.r_value with Ok v -> v | Error e -> (None, "exn:" ^ Printexc.to_string e, None))
  |> Array.of_list

(* The statedbs of the carried lanes, each opened at the world's first
   root and committed after every transaction. *)
type carried = { c_legacy : Statedb.t; c_replay : Statedb.t; c_ap : Statedb.t }

(* What a per-transaction lane sees: the transaction, the reference's run
   of it, the carried statedbs, and the report. *)
type view = {
  w : world;
  r : report;
  ctx : string;
  tx : Evm.Env.tx;
  ref_ : step;
  carried : carried;
}

(* findings are kept newest first and reversed once at the end of a run *)
let note r fs = r.findings <- List.rev_append fs r.findings
let finding v ~lane field detail = note v.r [ { ctx = v.ctx; lane; field; detail } ]
let guarded v lane f = try f () with exn -> finding v ~lane "exception" (Printexc.to_string exn)

(* [(receipt, root)] committed from [want]'s pre-state (by default the
   reference's) against [want]'s receipt and post-state root. *)
let check ?want v ~lane (receipt, post) =
  let want = Option.value want ~default:v.ref_ in
  note v.r (diff v.w ~ctx:v.ctx ~lane ~roots:(want.pre, want.post, post) want.receipt receipt)

let ran (s : step) = (s.receipt, s.post)
let spurious v lane = finding v ~lane "spurious_violation"

(* One transaction of a carried lane: [run] executes it on the lane's
   statedb, or returns None to have the EVM execute it there instead (a
   build fallback or a violation); then commit and compare. *)
let carry v ~lane st run =
  guarded v lane (fun () ->
      let got =
        match run st with
        | Some got -> got
        | None -> Evm.Processor.execute_tx ~spec:v.w.spec st benv v.tx
      in
      check v ~lane (got, Statedb.commit st))

let legacy_lane v =
  carry v ~lane:"legacy" v.carried.c_legacy (fun st ->
      Some (Evm.Processor.execute_tx ~engine:Evm.Interp.Legacy ~spec:v.w.spec st benv v.tx))

(* The AP fast path: satisfied with memoization (carried) and without, a
   perturbed context, and a path built warm but replayed cold. *)
let ap_lane ?fault v built =
  let { w; r; tx; ref_ = { pre; _ }; _ } = v in
  let exec ?use_memos ap st = Ap.Exec.execute ?use_memos ~spec:w.spec ap st benv tx in
  let satisfied = "violation in the very context the path was built from" in
  carry v ~lane:"ap" v.carried.c_ap (fun st ->
      Option.bind built (fun (_, ap) ->
          match exec ~use_memos:true ap st with
          | Ap.Exec.Hit (got, _) -> Some got
          | Ap.Exec.Violation ->
            spurious v "ap" satisfied;
            None));
  Option.iter
    (fun (path, ap) ->
      guarded v "ap-nomemo" (fun () ->
          let st = fresh w pre in
          match exec ~use_memos:false ap st with
          | Ap.Exec.Hit (got, _) -> check v ~lane:"ap-nomemo" (got, Statedb.commit st)
          | Ap.Exec.Violation -> spurious v "ap-nomemo" satisfied);
      Option.iter
        (fun (addr, key) ->
          (* one constrained slot changed: a Hit must match the EVM there, a
             Violation must have written nothing *)
          guarded v "ap-perturbed" (fun () ->
              let st = fresh w pre in
              Statedb.set_storage st addr key (U256.add (Statedb.get_storage st addr key) U256.one);
              let p_root = Statedb.commit st in
              let want = execute w ~root:p_root tx and st = fresh w p_root in
              match exec ap st with
              | Ap.Exec.Violation ->
                r.perturbed_violations <- r.perturbed_violations + 1;
                check ~want v ~lane:"ap-perturbed-fallback" (ran (execute ~st w ~root:p_root tx))
              | Ap.Exec.Hit (got, _) ->
                r.perturbed_hits <- r.perturbed_hits + 1;
                check ~want v ~lane:"ap-perturbed-hit" (got, Statedb.commit st));
          (* built with the slot prewarmed, the path must pin that with a
             warmth guard and violate when run cold *)
          if w.spec.Spec.has_access_lists then
            guarded v "ap-warm" (fun () ->
                match build ?fault ~prewarm:[ (addr, Some key) ] w ~root:pre tx with
                | Error _ -> ()
                | Ok wpath -> (
                  let st = fresh w pre in
                  match exec (compile wpath) st with
                  | Ap.Exec.Violation ->
                    r.warm_violations <- r.warm_violations + 1;
                    check v ~lane:"ap-warm-fallback" (ran (execute ~st w ~root:pre tx))
                  | Ap.Exec.Hit (got, _) ->
                    check v ~lane:"ap-warm-built-cold-replay" (got, Statedb.commit st))))
        (constrained_slot path))
    built

(* Replay, Verifier and Ap share one build per transaction. *)
let path_lanes ?fault ~on v =
  let { w; r; tx; ref_ = { pre; _ }; _ } = v in
  let built =
    try
      match build ?fault w ~root:pre tx with
      | Ok path -> Some (path, compile path)
      | Error _ ->
        r.fallbacks <- r.fallbacks + 1;
        None
    with exn ->
      finding v ~lane:"build" "exception" (Printexc.to_string exn);
      None
  in
  if on Replay then
    carry v ~lane:"replay" v.carried.c_replay (fun st ->
        Option.bind built (fun (path, _) ->
            match Sevm.Replay.run ~spec:w.spec path st benv tx with
            | Sevm.Replay.Replayed got -> Some got
            | Sevm.Replay.Violated g ->
              (* built against this very state: every guard holds *)
              spurious v "replay" (Fmt.str "guard %d: %s" g.index g.detail);
              None));
  if on Verifier then
    Option.iter
      (fun (path, ap) ->
        r.programs <- r.programs + 1;
        List.iter
          (fun (x : Analysis.Report.violation) ->
            finding v ~lane:"verifier" (Analysis.Report.kind_name x.kind) (x.site ^ ": " ^ x.detail))
          (Analysis.Verify.verify_path path @ Analysis.Verify.verify ap))
      built;
  if on Ap then ap_lane ?fault v built

(* bca's prediction must cover the reference's touch log and change set;
   each calldata-independence claim gets a witness re-execution. *)
let footprint_lane v =
  let { w; r; tx; ref_; _ } = v and lane = "footprint" in
  guarded v lane @@ fun () ->
  let st0 = fresh w ref_.pre in
  let code_of a =
    if Evm.Interp.is_precompile a then None
    else match Statedb.get_code st0 a with "" -> None | c -> Some c
  in
  let pred = Bca.predict_tx ~spec:w.spec ~code_of ~coinbase:benv.coinbase tx in
  r.touches <- r.touches + List.length ref_.touches;
  r.changes <- r.changes + List.length ref_.changes;
  if pred.Bca.p_wild then r.wild <- r.wild + 1;
  List.iter
    (fun t ->
      if not (Bca.covers_touch pred t) then
        finding v ~lane "read" (Fmt.str "footprint misses runtime read: %a" pp_touch t))
    ref_.touches;
  List.iter
    (fun (ch : Statedb.change) ->
      if not (Bca.covers_change pred ch) then
        finding v ~lane "write"
          (Fmt.str "footprint misses runtime write: account %s%s" (Address.to_hex ch.ch_addr)
             (match ch.ch_slots with
             | [] -> ""
             | slots ->
               Fmt.str " slots [%a]"
                 Fmt.(list ~sep:comma (fun ppf (k, _) -> string ppf (U256.to_hex k)))
                 slots)))
    ref_.changes;
  (* witnesses only for plain calls into real code that executed, with
     enough gas headroom that a value-dependent charge cannot tip the
     flipped run into OOG *)
  match tx.to_ with
  | Some target
    when (not (Evm.Interp.is_precompile target))
         && Statedb.get_code st0 target <> ""
         && (match ref_.receipt.status with Evm.Processor.Invalid _ -> false | _ -> true)
         && tx.gas_limit - ref_.receipt.gas_used >= 100_000 ->
    let f =
      Bca.facts_for ~spec:w.spec ~hash:(Statedb.get_code_hash st0 target)
        (Statedb.get_code st0 target)
    in
    let flipped ~off ~len k =
      Option.iter
        (fun data ->
          r.flips <- r.flips + 1;
          k (execute ~track:true w ~root:ref_.pre { tx with data }))
        (flip_nonzero tx.data ~off ~len)
    in
    if not (f.Bca.f_wild || f.Bca.f_cf_top) then begin
      let len = String.length tx.data in
      (* no selector read: receipt and root must not move *)
      if (not f.Bca.f_reads_selector) && len > 0 then
        flipped ~off:0 ~len:(min 4 len) (fun got ->
            if diff w ~ctx:v.ctx ~lane ~roots:(ref_.pre, ref_.post, got.post) ref_.receipt
                 got.receipt
               <> []
            then
              finding v ~lane "selector_witness"
                "code analyzed as selector-independent, but flipping a selector byte changed \
                 the receipt or the committed root");
      (* word k off control flow: the path must not move *)
      for k = 0 to min (((len - 4 + 31) / 32) - 1) 7 do
        if f.Bca.f_cf_words land (1 lsl k) = 0 then
          flipped ~off:(4 + (32 * k)) ~len:32 (fun got ->
              if got.steps <> ref_.steps
                 || not (Evm.Processor.status_equal ref_.receipt.status got.receipt.status)
              then
                finding v ~lane "calldata_witness"
                  (Fmt.str
                     "word %d analyzed as control-flow-irrelevant, but flipping it changed the \
                      path (%d vs %d steps)"
                     k ref_.steps got.steps))
      done
    end
  | _ -> ()

let tx_ctx w i = Printf.sprintf "%s tx#%d" w.label i

(* jobs=1 vs jobs=N speculation: identical fingerprints, outcomes, receipts *)
let speculation_lane ?fault w r reference jobs =
  let lane = lane_name (Speculation jobs) in
  let seq = speculate ?fault w reference ~jobs:1 and par = speculate ?fault w reference ~jobs in
  Array.iteri
    (fun i ((fa, oa, ra), (fb, ob, rb)) ->
      let ctx = tx_ctx w i in
      let finding field detail = note r [ { ctx; lane; field; detail } ] in
      (match (fa, fb) with
      | Some a, Some b ->
        r.fingerprints <- r.fingerprints + 1;
        if not (String.equal a b) then
          finding "ap_fingerprint" (Sexp.hex_of_string a ^ " vs " ^ Sexp.hex_of_string b)
      | None, None -> ()
      | _ -> finding "ap_built" "an AP was built at one jobs count only");
      if not (String.equal oa ob) then finding "outcome" (oa ^ " vs " ^ ob);
      match (ra, rb) with Some a, Some b -> note r (diff w ~ctx ~lane a b) | _ -> ())
    (Array.combine seq par)

(* The whole batch as one block: the sequential block apply (one statedb,
   one commit, as block import), then the conflict-aware parallel apply at
   jobs=1 (the commit protocol alone) and jobs=N (worker domains). *)
let apply_lane w r (reference : step array) jobs =
  let ctx = w.label ^ " block" and txs = Array.to_list w.txs in
  let gas = Array.fold_left (fun g s -> g + s.receipt.gas_used) 0 reference in
  let n = Array.length reference in
  let last = if n = 0 then w.root0 else reference.(n - 1).post in
  let compare lane (b : Chain.Stf.block_result) =
    List.iteri (fun i got -> note r (diff w ~ctx:(tx_ctx w i) ~lane reference.(i).receipt got))
      b.receipts;
    if gas <> b.gas_used then
      note r [ { ctx; lane; field = "block_gas"; detail = Fmt.str "%d vs %d" gas b.gas_used } ];
    note r (root_diff w ~ctx ~lane (w.root0, last, b.state_root))
  in
  compare "apply(seq)" (Chain.Stf.apply_txs ~spec:w.spec (fresh w w.root0) benv txs);
  List.iter
    (fun jobs ->
      let pool = Chain.Stf.create_pool ~jobs () in
      let par, (stats : Chain.Stf.par_stats) =
        Fun.protect
          ~finally:(fun () -> Chain.Stf.shutdown_pool pool)
          (fun () -> Chain.Stf.apply_txs_parallel ~pool ~spec:w.spec (fresh w w.root0) benv txs)
      in
      r.aborts <- r.aborts + stats.par_aborted;
      r.forced <- r.forced + stats.par_forced;
      compare (lane_name (Apply jobs)) par)
    [ 1; jobs ]

let run_lanes ?fault ~lanes w : report =
  let on l = List.mem l lanes in
  let r = { (empty ()) with scenarios = 1; txs = Array.length w.txs } in
  let reference =
    let root = ref w.root0 in
    Array.map
      (fun tx ->
        let s = execute ~track:(on Footprint) w ~root:!root tx in
        root := s.post;
        s)
      w.txs
  in
  let carried =
    { c_legacy = fresh w w.root0; c_replay = fresh w w.root0; c_ap = fresh w w.root0 }
  in
  Array.iteri
    (fun i tx ->
      let v = { w; r; ctx = tx_ctx w i; tx; ref_ = reference.(i); carried } in
      if on Legacy then legacy_lane v;
      if on Replay || on Ap || on Verifier then path_lanes ?fault ~on v;
      if on Footprint then footprint_lane v)
    w.txs;
  List.iter
    (function
      | Speculation jobs -> speculation_lane ?fault w r reference jobs
      | Apply jobs -> apply_lane w r reference jobs
      | Legacy | Replay | Ap | Verifier | Footprint -> ())
    lanes;
  r.findings <- List.rev r.findings;
  r

let run ?fault ~lanes w =
  let r =
    match fault with
    | None -> run_lanes ~lanes w
    | Some f -> with_fault f (fun () -> run_lanes ?fault ~lanes w)
  in
  List.iter
    (fun (name, v) -> Obs.add (Obs.counter ("fuzz." ^ name)) v)
    [ ("txs", r.txs); ("findings", List.length r.findings); ("build_fallbacks", r.fallbacks);
      ("perturbed_hits", r.perturbed_hits); ("perturbed_violations", r.perturbed_violations);
      ("warm_violations", r.warm_violations); ("flips", r.flips) ];
  r

(* ---- the corpus + generated sweep ---- *)

type sweep = {
  corpus : report;  (** corpus runs, plus the bca sentinels with [Footprint] *)
  generated : report;
  files : int;  (** corpus files read *)
  errors : (string * string) list;  (** (file, problem) *)
  first_failure : (int * Scenario.t) option;
      (** the first generated iteration with a finding, as run *)
}

let read_scenario path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception exn -> Error ("read error: " ^ Printexc.to_string exn)
  | text -> Result.map_error (fun m -> "parse error: " ^ m) (Scenario.of_string text)

let with_fork (s : Scenario.t) f = { s with Scenario.fork = Some f }

(* The fork rule: a corpus entry pinned to a fork runs there, an unpinned
   one under every fork; a generated scenario runs under its drawn fork,
   or once per fork in [per_fork]. *)
let sweep ~lanes ?fault ~corpus ~seed ~iters ?per_fork () =
  let files =
    if not (Sys.file_exists corpus) then []
    else
      Sys.readdir corpus |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".sexp")
      |> List.sort String.compare
      |> List.map (Filename.concat corpus)
  in
  let run_scenario ~label s = run ?fault ~lanes (of_scenario ~label s) in
  let sentinels =
    if List.mem Footprint lanes then
      List.map (fun n -> run ?fault ~lanes (sentinel n)) narrowings
    else []
  in
  let errors = ref [] in
  let corpus_runs =
    List.concat_map
      (fun path ->
        match read_scenario path with
        | Error e ->
          errors := (path, e) :: !errors;
          []
        | Ok s ->
          let label = Filename.basename path in
          List.map (run_scenario ~label)
            (match s.fork with Some _ -> [ s ] | None -> List.map (with_fork s) Spec.all_forks))
      files
  in
  let first_failure = ref None in
  let generated =
    List.concat_map
      (fun i ->
        let s = Generate.seeded ~seed i in
        let label = Printf.sprintf "gen(seed=%d,iter=%d)" seed i in
        List.map
          (fun s ->
            let r = run_scenario ~label s in
            if r.findings <> [] && !first_failure = None then first_failure := Some (i, s);
            r)
          (match per_fork with None -> [ s ] | Some forks -> List.map (with_fork s) forks))
      (List.init iters Fun.id)
  in
  let sum rs = List.fold_right merge rs (empty ()) in
  { corpus = sum (sentinels @ corpus_runs); generated = sum generated;
    files = List.length files; errors = List.rev !errors; first_failure = !first_failure }

let total sw = merge sw.corpus sw.generated

(* What fails an unseeded run: unreadable corpus entries, findings, and
   lanes that compared nothing. *)
let problems ?(errors = []) ~lanes r =
  List.map (fun (f, e) -> Printf.sprintf "corpus error %s: %s" f e) errors
  @ List.map (Fmt.str "%a" pp_finding) r.findings
  @ List.map (fun l -> lane_name l ^ " lane checked nothing") (unchecked ~lanes r)

let sweep_problems ~lanes sw = problems ~errors:sw.errors ~lanes (total sw)

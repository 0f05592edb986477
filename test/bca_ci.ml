(* The @bca alias: the soundness battery for lib/bca's static analysis.

   1. Positive sweep: the four sentinels, the whole corpus, and 200
      generated scenarios per fork must show ZERO footprint violations —
      every runtime touch and committed change inside the static
      prediction, every calldata-independence claim surviving its witness
      flip (the footprint lane of Fuzz.Oracle).
   2. Narrowing rejection: each seeded [Bca.narrowing] makes exactly one
      domain unsound, and the same sweep must then report a finding on
      that domain's sentinel — the same contract as `forerunner check`'s
      seeded miscompilations.
   3. 4-domain analysis-cache hammer: concurrent [Bca.facts_for] calls —
      with one domain repeatedly clearing the cache to force racing
      re-analyses — must always return facts identical to the
      single-threaded reference. *)

let seed = 42
let iters_per_fork = 200

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let lanes = [ Fuzz.Oracle.Footprint ]

let positive_sweep () =
  let sw =
    Fuzz.Oracle.sweep ~lanes ~corpus:"corpus" ~seed ~iters:iters_per_fork
      ~per_fork:Spec.all_forks ()
  in
  let t = Fuzz.Oracle.total sw in
  Printf.printf
    "bca-ci: %d scenarios (4 sentinels, %d corpus files, %d/fork generated x %d forks), %d \
     txs: %d touches + %d changes covered, %d wild, %d witness flips\n%!"
    t.scenarios sw.files iters_per_fork Spec.n_forks t.txs t.touches t.changes t.wild t.flips;
  match Fuzz.Oracle.sweep_problems ~lanes sw with
  | [] -> ()
  | ps ->
    List.iter (Printf.printf "bca-ci: %s\n") ps;
    fail "bca-ci: SOUNDNESS FAILURE: %d problem(s)" (List.length ps)

let narrowing_rejections () =
  List.iter
    (fun n ->
      (* a small sweep suffices: the sentinels are built to trip each
         narrowed domain deterministically *)
      let fault = Fuzz.Oracle.Narrow n in
      let sw =
        Fuzz.Oracle.sweep ~lanes ~fault ~corpus:"corpus" ~seed ~iters:2 ~per_fork:Spec.all_forks ()
      in
      let t = Fuzz.Oracle.total sw and name = Bca.narrowing_name n in
      if not (Fuzz.Oracle.caught fault t) then
        fail "bca-ci: NARROWING %s NOT CAUGHT by sentinel %s" name (Fuzz.Oracle.sentinel_name n);
      Printf.printf "bca-ci: narrowing %-9s caught (%d finding(s), sentinel %s)\n%!" name
        (List.length t.findings) (Fuzz.Oracle.sentinel_name n))
    Fuzz.Oracle.narrowings

let cache_hammer () =
  let codes =
    List.concat_map
      (fun i ->
        let s = Fuzz.Generate.seeded ~seed:7 i in
        List.map (Fuzz.Scenario.compile s) s.Fuzz.Scenario.contracts)
      [ 0; 1; 2; 3 ]
  in
  let spec = Spec.resolve Spec.Istanbul in
  Bca.clear_cache ();
  let reference = List.map (fun c -> Bca.facts_for ~spec c) codes in
  let mismatches = Atomic.make 0 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to 50 do
              if d = 0 then Bca.clear_cache ();
              List.iter2
                (fun c r -> if Bca.facts_for ~spec c <> r then Atomic.incr mismatches)
                codes reference
            done))
  in
  List.iter Domain.join domains;
  if Atomic.get mismatches > 0 then
    fail "bca-ci: CACHE HAMMER: %d facts mismatches under 4-domain contention"
      (Atomic.get mismatches);
  Printf.printf "bca-ci: 4-domain analysis-cache hammer holds (%d codes x 200 lookups)\n%!"
    (List.length codes)

let () =
  positive_sweep ();
  narrowing_rejections ();
  cache_hammer ();
  print_string "bca-ci: all passes green\n"

(* lib/fuzz: the differential oracle's own tests — corpus serialization,
   deterministic generation, a bounded clean pass, the corpus fork rule,
   the seeded-fault switches, and the mutation smoke test proving the
   oracle has teeth. *)

module O = Fuzz.Oracle

let check = Alcotest.check
let checkb = Alcotest.(check bool)

let t name f = Alcotest.test_case name `Quick f

let sexp_roundtrip () =
  for i = 0 to 30 do
    let s = Fuzz.Generate.seeded ~seed:1234 i in
    match Fuzz.Scenario.of_string (Fuzz.Scenario.to_string s) with
    | Error m -> Alcotest.failf "iteration %d does not parse back: %s" i m
    | Ok s' ->
      checkb (Printf.sprintf "iteration %d round-trips" i) true (Fuzz.Scenario.equal s s')
  done

let deterministic_generation () =
  for i = 0 to 20 do
    let a = Fuzz.Generate.seeded ~seed:7 i in
    let b = Fuzz.Generate.seeded ~seed:7 i in
    checkb (Printf.sprintf "seed 7 iteration %d reproduces" i) true (Fuzz.Scenario.equal a b)
  done;
  (* different seeds must not all collide *)
  let differs = ref false in
  for i = 0 to 5 do
    if
      not
        (Fuzz.Scenario.equal (Fuzz.Generate.seeded ~seed:7 i) (Fuzz.Generate.seeded ~seed:8 i))
    then differs := true
  done;
  checkb "seeds 7 and 8 generate different scenarios" true !differs

let no_problems ~lanes r =
  List.iter (fun p -> Alcotest.fail p) (O.problems ~lanes r)

let clean_pass () =
  let lanes = O.conformance in
  let r =
    List.init 60 (fun i ->
        O.run ~lanes (O.of_scenario ~label:"gen" (Fuzz.Generate.seeded ~seed:42 i)))
    |> List.fold_left O.merge (O.empty ())
  in
  no_problems ~lanes r;
  check Alcotest.int "all iterations ran" 60 r.scenarios;
  checkb "perturbed contexts were exercised" true (r.perturbed_hits + r.perturbed_violations > 0)

(* The fork rule: the 3 fork-pinned entries run once, the 2 unpinned ones
   under all 5 forks — 13 runs. *)
let corpus_replays_clean () =
  let lanes = O.conformance in
  let sw = O.sweep ~lanes ~corpus:"corpus" ~seed:0 ~iters:0 () in
  check Alcotest.int "corpus files" 5 sw.files;
  check Alcotest.int "corpus runs under the fork rule" 13 sw.corpus.scenarios;
  List.iter Alcotest.fail (O.sweep_problems ~lanes sw)

let mutation_smoke () =
  (* A miscompiled C_add must be caught within a small fixed budget, and
     the shrunk counterexample must still reproduce. *)
  let lanes = O.conformance and fault = O.Add in
  let sw = O.sweep ~lanes ~fault ~corpus:"corpus" ~seed:42 ~iters:25 () in
  checkb "the verifier lane caught the ADD fault" true (O.caught fault (O.total sw));
  match sw.first_failure with
  | None -> Alcotest.fail "mutated AP executor survived 25 iterations undetected"
  | Some failure ->
    let s = Fuzz.Driver.shrink ~fault ~lanes ~seed:42 failure in
    checkb "shrunk scenario still diverges" true
      (Fuzz.Driver.findings ~fault ~lanes s.scenario <> []);
    checkb "shrinking did not grow the scenario" true
      (Fuzz.Scenario.size s.scenario <= Fuzz.Scenario.size s.original);
    checkb "divergences were reported" true (s.findings <> [])

let mutation_gone_after_reset () =
  (* the smoke test's fault must not leak: the same scenario is clean now *)
  checkb "ADD switch is off" false !Ap.Exec.miscompile_add_for_tests;
  checkb "scenario is clean without the mutation" true
    (Fuzz.Driver.findings ~lanes:O.conformance (Fuzz.Generate.seeded ~seed:42 0) = [])

let all_faults =
  O.Add :: O.Drop_guard :: List.map (fun n -> O.Narrow n) O.narrowings

let with_fault_restores () =
  List.iter
    (fun fault ->
      let add = !Ap.Exec.miscompile_add_for_tests
      and hook = !Ap.Program.add_path_hook
      and narrow = !Bca.seeded_narrowing in
      (match O.with_fault fault (fun () -> failwith "body raised") with
      | () -> Alcotest.fail "the body's exception was swallowed"
      | exception Failure _ -> ());
      let name = O.fault_name fault in
      checkb (name ^ ": ADD switch restored") add !Ap.Exec.miscompile_add_for_tests;
      checkb (name ^ ": add_path hook restored") true (hook == !Ap.Program.add_path_hook);
      checkb (name ^ ": narrowing restored") true (narrow = !Bca.seeded_narrowing))
    all_faults

(* Add and Drop_guard on the verifier lane; each narrowing's sentinel is
   checked in test_bca. *)
let faults_caught () =
  let w () = O.of_scenario ~label:"gen" (Fuzz.Generate.seeded ~seed:1 0) in
  List.iter
    (fun fault ->
      checkb
        (O.fault_name fault ^ " caught by the verifier lane")
        true
        (O.caught fault (O.run ~fault ~lanes:[ O.Verifier ] (w ()))))
    [ O.Add; O.Drop_guard ]

let suite =
  [ t "scenario sexp round-trips" sexp_roundtrip;
    t "generation is deterministic per (seed, iteration)" deterministic_generation;
    t "bounded fuzz pass: three engines agree" clean_pass;
    t "corpus counterexamples replay clean" corpus_replays_clean;
    t "mutation smoke: miscompiled ADD is caught and shrunk" mutation_smoke;
    t "mutation flag does not leak" mutation_gone_after_reset;
    t "with_fault restores all three switches when the body raises" with_fault_restores;
    t "add and drop-guard are caught by the verifier lane" faults_caught ]

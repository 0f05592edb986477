(* The @fuzz alias: the conformance lanes over every corpus counterexample
   (under the fork rule) and a bounded fixed-seed generated sweep.  Exit
   non-zero on any finding, and on a lane that checked nothing — this is
   the conformance toll every PR pays via `dune runtest`. *)

let iters = 500
let seed = 42
let lanes = Fuzz.Oracle.conformance

let () =
  let sw = Fuzz.Oracle.sweep ~lanes ~corpus:"corpus" ~seed ~iters () in
  let g = sw.generated in
  Printf.printf "fuzz-ci: corpus %d runs from %d entries\n" sw.corpus.scenarios sw.files;
  Printf.printf
    "fuzz-ci: %d iterations (seed %d): %d txs, %d fallbacks, %d perturbed violations, %d \
     perturbed hits, %d warm-built cold-replay violations\n%!"
    g.scenarios seed g.txs g.fallbacks g.perturbed_violations g.perturbed_hits g.warm_violations;
  Option.iter
    (fun ((iter, _) as failure) ->
      let s = Fuzz.Driver.shrink ~lanes ~seed failure in
      Printf.printf "fuzz-ci: iteration %d diverges, shrunk scenario:\n%s\n" iter
        (Fuzz.Scenario.to_string s.scenario))
    sw.first_failure;
  match Fuzz.Oracle.sweep_problems ~lanes sw with
  | [] -> print_string "fuzz-ci: all engines agree\n"
  | ps ->
    List.iter (Printf.printf "fuzz-ci: %s\n") ps;
    exit 1

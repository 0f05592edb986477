(* The @analysis alias: the verifier lane over every corpus run and a
   bounded generated sweep (so corpus drift fails CI), the qcheck property
   that the verifier accepts everything the builder produces, and both
   seeded miscompilations caught by the matching checker.  Exit non-zero on
   any finding of the clean runs or any fault that slips through. *)

let seed = 42
let iters = 8
let lanes = [ Fuzz.Oracle.Verifier ]

let fail fmt = Printf.ksprintf (fun m -> print_endline m; exit 1) fmt

let () =
  (* 1. clean sweep: corpus + generated scenarios must all verify *)
  let sw = Fuzz.Oracle.sweep ~lanes ~corpus:"corpus" ~seed ~iters () in
  let t = Fuzz.Oracle.total sw in
  Printf.printf
    "analysis-ci: verified %d programs from %d corpus runs (%d files) + %d generated \
     scenarios, %d fallbacks\n%!"
    t.programs sw.corpus.scenarios sw.files iters t.fallbacks;
  (match Fuzz.Oracle.sweep_problems ~lanes sw with
  | [] -> ()
  | ps ->
    List.iter (Printf.printf "analysis-ci: %s\n") ps;
    exit 1);

  (* 2. property: for any generator seed, builder output verifies *)
  let prop =
    QCheck.Test.make ~count:40 ~name:"verifier accepts builder output"
      QCheck.(int_bound 10_000)
      (fun s ->
        let w = Fuzz.Oracle.of_scenario ~label:"prop" (Fuzz.Generate.seeded ~seed:s 0) in
        match (Fuzz.Oracle.run ~lanes w).findings with
        | [] -> true
        | f :: _ -> QCheck.Test.fail_reportf "%a" Fuzz.Oracle.pp_finding f)
  in
  (try QCheck.Test.check_exn prop
   with exn -> fail "analysis-ci: PROPERTY FAILED: %s" (Printexc.to_string exn));

  (* 3. each seeded miscompilation must be caught by its checker *)
  List.iter
    (fun fault ->
      let sw = Fuzz.Oracle.sweep ~lanes ~fault ~corpus:"corpus" ~seed ~iters () in
      let t = Fuzz.Oracle.total sw in
      let name = Fuzz.Oracle.fault_name fault in
      match List.filter (Fuzz.Oracle.expected fault) t.findings with
      | [] -> fail "analysis-ci: MUTATION %s NOT CAUGHT" name
      | f :: _ as hits ->
        Printf.printf "analysis-ci: mutation %s caught (%d %s findings on %d programs)\n%!"
          name (List.length hits) f.field t.programs)
    [ Fuzz.Oracle.Add; Fuzz.Oracle.Drop_guard ];
  print_string "analysis-ci: verifier clean on corpus + generated, both mutations caught\n"

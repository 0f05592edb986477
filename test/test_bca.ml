(* lib/bca in the alcotest suite: the qcheck soundness property (static
   footprint ⊇ runtime touch log, across every hardfork) on generated
   scenarios, plus one negative case per analysis domain — each seeded
   [Bca.narrowing] must trip its matching sentinel.  The heavyweight
   corpus + 200-per-fork sweep lives in bca_ci (`dune build @bca`); this
   suite keeps a lighter property inside `dune test`. *)

module O = Fuzz.Oracle

let checkb = Alcotest.(check bool)
let lanes = [ O.Footprint ]

let t name f = Alcotest.test_case name `Quick f

(* ---- positive property: generated scenarios are sound on all forks ---- *)

let arb_iter = QCheck.int_range 0 500

let footprint_sound =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"footprint covers touch log on every fork" arb_iter
       (fun i ->
         List.for_all
           (fun fork ->
             let s =
               { (Fuzz.Generate.seeded ~seed:97 i) with Fuzz.Scenario.fork = Some fork }
             in
             let label = Printf.sprintf "qcheck(iter=%d)" i in
             match (O.run ~lanes (O.of_scenario ~label s)).findings with
             | [] -> true
             | f :: _ -> QCheck.Test.fail_reportf "%a" O.pp_finding f)
           Spec.all_forks))

(* ---- negative cases: each narrowing must trip its sentinel ---- *)

let narrowing_tripped n () =
  let fault = O.Narrow n in
  let r = O.run ~fault ~lanes (O.sentinel n) in
  checkb
    (Printf.sprintf "narrowing %s trips sentinel %s" (Bca.narrowing_name n) (O.sentinel_name n))
    true (O.caught fault r)

let narrowing_does_not_leak () =
  checkb "no narrowing active after the negative cases" true (!Bca.seeded_narrowing = None);
  List.iter
    (fun n ->
      checkb
        (O.sentinel_name n ^ " is clean without a narrowing")
        true
        ((O.run ~lanes (O.sentinel n)).findings = []))
    O.narrowings

let suite =
  [ footprint_sound;
    t "negative: cfg narrowing caught" (narrowing_tripped Bca.N_cfg);
    t "negative: stack narrowing caught" (narrowing_tripped Bca.N_stack);
    t "negative: footprint narrowing caught" (narrowing_tripped Bca.N_footprint);
    t "negative: calldata narrowing caught" (narrowing_tripped Bca.N_calldata);
    t "narrowing flag does not leak" narrowing_does_not_leak ]

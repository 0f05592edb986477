(* The @parallel alias: conflict-aware parallel block apply at jobs=1 and
   jobs=4 checked against the reference on every corpus run plus a bounded
   generated sweep — every receipt field and the committed block root must
   be byte-identical.  Exit non-zero on any finding. *)

let lanes = [ Fuzz.Oracle.Apply 4 ]

let () =
  let sw = Fuzz.Oracle.sweep ~lanes ~corpus:"corpus" ~seed:1301 ~iters:8 () in
  let t = Fuzz.Oracle.total sw in
  Printf.printf
    "parallel-ci: %d corpus runs (%d files) + %d generated: %d txs applied per jobs count; \
     %d aborts, %d forced reruns\n%!"
    sw.corpus.scenarios sw.files sw.generated.scenarios t.txs t.aborts t.forced;
  match Fuzz.Oracle.sweep_problems ~lanes sw with
  | [] -> print_string "parallel-ci: parallel apply = sequential apply everywhere\n"
  | ps ->
    List.iter (Printf.printf "parallel-ci: %s\n") ps;
    exit 1

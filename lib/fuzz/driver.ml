(* The fuzzer's shrinking step: a failing scenario from [Oracle.sweep] is
   minimized to one that still produces a finding and optionally saved to
   a corpus directory, where every later sweep replays it as a regression
   test. *)

type shrunk = {
  original : Scenario.t;
  scenario : Scenario.t;  (** minimized *)
  findings : Oracle.finding list;  (** of the minimized scenario *)
  file : string option;
}

let obs_shrink_probes = Obs.counter "fuzz.shrink_probes"

let findings ?fault ~lanes s =
  (Oracle.run ?fault ~lanes (Oracle.of_scenario ~label:"shrink" s)).findings

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let shrink ?fault ~lanes ?corpus_dir ~seed (iter, original) =
  let scenario =
    Shrink.minimize
      ~diverges:(fun c ->
        Obs.incr obs_shrink_probes;
        findings ?fault ~lanes c <> [])
      original
  in
  (* shrinking keeps *some* finding by construction; fall back to the
     original should a flaky predicate lose it *)
  let scenario, findings =
    match findings ?fault ~lanes scenario with
    | [] -> (original, findings ?fault ~lanes original)
    | fs -> (scenario, fs)
  in
  let file =
    Option.map
      (fun dir ->
        mkdir_p dir;
        let file = Filename.concat dir (Printf.sprintf "cx-seed%d-iter%d.sexp" seed iter) in
        Out_channel.with_open_bin file (fun oc -> output_string oc (Scenario.to_string scenario));
        file)
      corpus_dir
  in
  { original; scenario; findings; file }

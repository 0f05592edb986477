(* The benchmark's reference kernel: fixed work timed between the blocks of
   each phase to track how fast the host runs the process just then (see
   NOTES.md, "Scaled CPU time").

   The work is of the workloads' own kind, boxed Int64 permutation rounds
   and hash-table inserts, so a neighbour that slows them slows it alike.
   The permutation is a frozen copy of Keccak-f[1600] from lib/khash rather
   than a call into it: a faster Keccak in the repository must not speed up
   the yardstick and hide part of its own gain. *)

let round_constants =
  [| 0x0000000000000001L; 0x0000000000008082L; 0x800000000000808AL;
     0x8000000080008000L; 0x000000000000808BL; 0x0000000080000001L;
     0x8000000080008081L; 0x8000000000008009L; 0x000000000000008AL;
     0x0000000000000088L; 0x0000000080008009L; 0x000000008000000AL;
     0x000000008000808BL; 0x800000000000008BL; 0x8000000000008089L;
     0x8000000000008003L; 0x8000000000008002L; 0x8000000000000080L;
     0x000000000000800AL; 0x800000008000000AL; 0x8000000080008081L;
     0x8000000000008080L; 0x0000000080000001L; 0x8000000080008008L |]

let rotation =
  [| 0; 1; 62; 28; 27; 36; 44; 6; 55; 20; 3; 10; 43; 25; 39; 41; 45; 15; 21; 8; 18; 2; 61; 56; 14 |]

let rotl64 x n =
  if n = 0 then x else Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

let keccak_f state =
  let c = Array.make 5 0L and d = Array.make 5 0L and b = Array.make 25 0L in
  for round = 0 to 23 do
    for x = 0 to 4 do
      c.(x) <-
        Int64.logxor state.(x)
          (Int64.logxor state.(x + 5)
             (Int64.logxor state.(x + 10) (Int64.logxor state.(x + 15) state.(x + 20))))
    done;
    for x = 0 to 4 do
      d.(x) <- Int64.logxor c.((x + 4) mod 5) (rotl64 c.((x + 1) mod 5) 1)
    done;
    for i = 0 to 24 do
      state.(i) <- Int64.logxor state.(i) d.(i mod 5)
    done;
    for x = 0 to 4 do
      for y = 0 to 4 do
        let i = x + (5 * y) in
        b.(y + (5 * (((2 * x) + (3 * y)) mod 5))) <- rotl64 state.(i) rotation.(i)
      done
    done;
    for x = 0 to 4 do
      for y = 0 to 4 do
        let i = x + (5 * y) in
        state.(i) <-
          Int64.logxor b.(i)
            (Int64.logand (Int64.lognot b.(((x + 1) mod 5) + (5 * y))) b.(((x + 2) mod 5) + (5 * y)))
      done
    done;
    state.(0) <- Int64.logxor state.(0) round_constants.(round)
  done

(* About 5 ms of CPU on an idle core of the VM the benchmark was tuned on. *)
let run () =
  let t = Hashtbl.create 16 in
  let state = Array.make 25 0L in
  for i = 0 to 399 do
    state.(i mod 25) <- Int64.logxor state.(i mod 25) (Int64.of_int i);
    keccak_f state;
    Hashtbl.replace t (Int64.to_string state.(0)) i
  done;
  ignore (Sys.opaque_identity t)

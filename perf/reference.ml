(* Host speed on a shared machine drifts by 5-50% within minutes, with
   the neighbours' memory traffic. The engine therefore runs in slices,
   each followed by a slice of this fixed loop — random reads and
   writes over an 8 MB table kept off the OCaml heap, none of the
   repository's code — and each engine slice's CPU time is rescaled by
   the loop's speed right after it, relative to [nominal]. Drift that
   slows both cancels, even when it changes within one run; heavy
   contention slows the simulator more than the loop, so there it
   cancels only in part. The raw times stay in the --out document. The
   loop's own speed depends on what runs around it (it runs faster
   alone, with its table warm), so it is only ever measured right after
   a stretch of the simulator's own work: an engine slice, or a phase
   of the set-up.

   Three properties matter, each checked when the loop was chosen:
   - The slices are fine (one per 20k engine events). Measured a second
     apart, the loop and the simulator no longer see the same machine.
   - The loop is memory-bound, because the drift is: a cache-resident
     loop barely tracks it.
   - It allocates nothing. An allocating loop triggers minor
     collections that promote the simulator's young objects, so its
     speed would depend on the code under test. As it is, making the
     simulator retain 18 MB more leaves the loop's speed unchanged. *)

let nominal = 1.0e8 (* iterations per CPU second *)
let slice_iterations = 80_000

let table =
  lazy
    (let t = Bigarray.(Array1.create int c_layout (1 lsl 20)) in
     Bigarray.Array1.fill t 0;
     t)

(* Run one slice; its speed, in iterations per CPU second. *)
let slice () =
  let t = Lazy.force table in
  let x = ref 1 in
  let c0 = Sys.time () in
  for i = 1 to slice_iterations do
    x := ((!x * 1103515245) + 12345) land 0xfffff;
    Bigarray.Array1.unsafe_set t !x (Bigarray.Array1.unsafe_get t !x + i)
  done;
  float_of_int slice_iterations /. Float.max 1e-6 (Sys.time () -. c0)

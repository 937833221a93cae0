(* Host-speed calibration.

   The host's speed drifts by up to 2x over minutes (a shared machine),
   far more than one run's operations vary. A fixed kernel is timed after
   a [Gc.full_major] right before and right after every timed operation
   and set-up: it builds, maps and folds short lists of boxed floats, the
   allocation-bound kind of work the workloads do, and all of it dies
   young, so it touches the minor heap only and does not depend on what
   the code under test keeps live. (Over five minutes of a drifting host,
   work-bound operations divided by this kernel's time varied 4-7%,
   against 18-20% undivided; an allocation-free sort-and-pointer-chase
   kernel tracked them far worse.)

   The kernel runs under fixed GC settings ([pinned]), restored right
   after, so a change that tunes the GC of the process ([Gc.set],
   OCAMLRUNPARAM) speeds up the operations but not the kernel, and its
   gain shows. What the kernel cannot separate from host speed is a
   change to the compiler or the OCaml runtime itself: those speed up
   both, and are not measured by work-bound times.

   A work-bound time [t] is reported as [t * reference_s / k], [k] the
   kernel time around it: the time on a host where the kernel takes
   [reference_s]. This is not a wall time; the wall time and the kernel
   time are reported beside it by a traced run. On the 2-vCPU Xeon VM
   this benchmark was written on the kernel took 2.2-3.3 ms. *)

let reference_s = 0.0025
let samples = ref []

(* OCaml 5's defaults: a 256 k-word minor heap, 120% space overhead. *)
let pinned (c : Gc.control) = { c with Gc.minor_heap_size = 262_144; space_overhead = 120 }

(* Time the kernel once; the sample is kept and returned. *)
let sample () =
  let saved = Gc.get () in
  Gc.set (pinned saved);
  let t0 = Unix.gettimeofday () in
  let acc = ref 0. in
  for r = 1 to 60 do
    let l = List.init 2000 (fun i -> float_of_int (i + r)) in
    let pairs = List.map (fun x -> (x, x *. 0.5)) l in
    acc := !acc +. List.fold_left (fun a (x, y) -> a +. x -. y) 0. pairs
  done;
  ignore (Sys.opaque_identity !acc);
  let dt = Unix.gettimeofday () -. t0 in
  Gc.set saved;
  samples := dt :: !samples;
  dt

let median_s () = Stats.median !samples

(* Whole-run factor, for per-layer times taken from trace spans. *)
let scale () = reference_s /. median_s ()

(** The monitoring service head (Ganglia stand-in): polls raw per-VM CPU
    readings and serves smoothed demand vectors to the control loop. *)

open Entropy_core

type source = unit -> float * int array
(** A reading: current time and per-VM CPU consumption. The collector
    keeps the array itself in its history, without copying it, so a
    source must never mutate an array it has returned: new readings
    come in a new array (the simulated cluster's readings are
    copy-on-write), and returning the same physical array again means
    the readings are unchanged. *)

type t

val create : source -> t
(** A collector keeping the 128 most recent readings. Demand is smoothed
    over a 10 s window, the accumulation the paper reports before each
    loop iteration. *)

val poll : t -> unit
(** Take one reading from the source. Readings that fail validation —
    a non-finite timestamp, a timestamp strictly before the latest
    sample's (reordered delivery or a clock jump; equal timestamps are
    admitted), or any negative CPU value — are dropped whole: they never
    enter the smoothing window. The array of the latest admitted sample
    is not scanned again when the source returns it once more. Drops
    are counted ({!dropped}, and the [monitor.dropped_samples] counter
    when observability is on). *)

val polls : t -> int

(** Readings rejected by validation so far. *)
val dropped : t -> int
val history : t -> History.t

val demand : t -> Demand.t
(** Smoothed per-VM CPU demand (window average, latest reading as
    fallback). Polls once when the history is empty. *)

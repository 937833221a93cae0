(** The monitoring service head (Ganglia stand-in): polls raw per-VM CPU
    readings and serves smoothed demand vectors to the control loop. *)

open Entropy_core

type source = unit -> float * int Chunked.t
(** A reading: current time and per-VM CPU consumption. The collector
    keeps the vector itself in its history. A source should hand out
    each new reading as an edit of its previous one ({!Chunked.edit}),
    so that the chunks that did not move are shared: validation scans
    only the chunks not shared with the latest admitted sample, and
    {!demand} shares a chunk the whole window shares instead of
    summing it. The simulated cluster's readings are such a vector. *)

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
    enter the smoothing window. The chunks a reading shares with the
    latest admitted sample are not scanned again. Drops are counted
    ({!dropped}, and the [monitor.dropped_samples] counter when
    observability is on). *)

val polls : t -> int

(** Readings rejected by validation so far. *)
val dropped : t -> int
val history : t -> History.t

val demand : t -> Demand.t
(** Smoothed per-VM CPU demand: the window average, as
    {!History.average_cpu} computes it for one VM (latest reading as
    fallback). It is an edit of the latest readings ({!Demand.edit}):
    the chunks every sample of the window shares with the latest are
    the latest's own, and only the others are written. Polls once when
    the history is empty. *)

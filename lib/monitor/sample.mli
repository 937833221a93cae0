(** A monitoring sample: per-VM CPU consumption at an instant. *)

open Entropy_core

type t

val make : time:float -> cpu:int Chunked.t -> t
(** Keeps [cpu] itself: successive readings of a source share the
    chunks that did not move ({!Collector.source}). *)

val time : t -> float

val readings : t -> int Chunked.t
(** The whole reading vector, as given to {!make}. *)

val cpu : t -> Vm.id -> int
(** Per-VM CPU consumption in hundredths of a core. Raises
    [Invalid_argument] on an unknown VM id. *)

val vm_count : t -> int
val pp : Format.formatter -> t -> unit

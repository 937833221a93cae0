(** A monitoring sample: per-VM CPU consumption at an instant. *)

open Entropy_core

type t

val make : time:float -> cpu:int array -> t
(** Keeps [cpu] itself, without copying: the caller must never mutate it
    afterwards (a {!Collector.source} promises exactly that). *)

val time : t -> float

val cpu : t -> Vm.id -> int
(** Per-VM CPU consumption in hundredths of a core. Raises
    [Invalid_argument] on an unknown VM id. *)

val vm_count : t -> int
val pp : Format.formatter -> t -> unit

(** A monitoring sample: per-VM CPU consumption at an instant. *)

open Entropy_core

type t

val make : time:float -> cpu:int array -> t
(** [cpu] is copied: later caller mutation does not alter the sample. *)

val retime : t -> time:float -> t
(** The same readings at another instant (shares the readings). *)

val time : t -> float

val cpu : t -> Vm.id -> int
(** Per-VM CPU consumption in hundredths of a core. Raises
    [Invalid_argument] on an unknown VM id. *)

val vm_count : t -> int
val pp : Format.formatter -> t -> unit

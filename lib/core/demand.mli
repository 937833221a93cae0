(** Per-VM CPU demand vector (hundredths of a core), as observed by the
    monitoring service. Memory demands are static ([Vm.memory_mb]).

    A demand is an immutable {!Chunked} vector indexed by [Vm.id]: a
    demand written from another ({!edit}) costs the chunks written and
    shares the rest, and neither ever changes afterwards. *)

type t = int Chunked.t

val make : vm_count:int -> default:int -> t
val of_fn : vm_count:int -> (Vm.id -> int) -> t
(** Calls the function on the VM ids in ascending order. *)

val uniform : vm_count:int -> int -> t

val cpu : t -> Vm.id -> int
(** Raises [Invalid_argument] for an unknown VM. *)

val vm_count : t -> int

type editor
(** Write access to one new demand, valid only inside the {!edit}
    callback that received it. *)

val edit : t -> (editor -> unit) -> t
(** [edit t f]: a new demand holding [f]'s writes, sharing every chunk
    [f] left unchanged with [t] (an edit that changes nothing returns
    [t] itself). [t] is unchanged, also when [f] raises. *)

val write : editor -> Vm.id -> int -> unit
(** Raises [Invalid_argument] for an unknown VM, before writing. *)

val equal : t -> t -> bool
(** Same length and demands; chunks shared between the two are not
    compared. *)

val pp : Format.formatter -> t -> unit

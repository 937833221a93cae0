(** Synthetic NAS Grid Benchmarks: the four NGB data-flow families as
    per-VM phase programs (see DESIGN.md for the substitution note). *)

type family = Ed | Hc | Vp | Mb
type cls = W | A | B

val families : family list
val classes : cls list
val class_to_string : cls -> string

val task_work : cls -> float
(** Per-task work (CPU-seconds) of each class. *)

val ed : vms:int -> work:float -> Program.t list
val hc : ?rounds:int -> vms:int -> work:float -> unit -> Program.t list
val vp :
  ?depth:int -> ?rounds:int -> vms:int -> work:float -> unit ->
  Program.t list
val mb : ?layers:int -> vms:int -> work:float -> unit -> Program.t list

val programs : ?rounds:int -> family -> cls -> vms:int -> Program.t list
(** One program per VM of the vjob. *)

val name : family -> cls -> vms:int -> string

(** Bounded sample history. *)

open Entropy_core

type t

val create : ?capacity:int -> unit -> t
(** Keeps the [capacity] (default 128) most recent samples. Raises
    [Invalid_argument] when [capacity <= 0]. *)

val add : t -> Sample.t -> unit
(** Appends in O(1); the oldest sample is dropped once over capacity. *)

val latest : t -> Sample.t option
val length : t -> int

val window : t -> now:float -> span:float -> Sample.t list
(** Samples no older than [now -. span], newest first. *)

val average_cpu : t -> now:float -> span:float -> Vm.id -> int option
(** Mean CPU of a VM over the window; latest sample when empty. *)

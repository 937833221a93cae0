(** Per-VM phase programs: what a VM does once its vjob is launched. *)

type phase =
  | Compute of float  (** CPU-seconds of work at full speed *)
  | Idle of float     (** wall-clock seconds (waiting on the DAG) *)

type t = phase list

val compute_demand : int
(** A computing task needs an entire processing unit (100). *)

val idle_demand : int

val demand : t -> int
(** Demand of the current (head) phase; 0 when the program is done. *)

val total_compute : t -> float
val min_duration : t -> float
(** Wall time with a dedicated core and no interruption. *)

val is_empty : t -> bool
val normalize : t -> t
val pp : Format.formatter -> t -> unit

val of_string : string -> (t, string) result
(** Comma-separated phases, e.g. ["I30,C60.5,I10"] (["C60"] is 60
    CPU-seconds of compute, ["I30"] 30 s of waiting); [""] is the empty
    program. *)

(** Traditional RMS scheduling policies: strict FCFS and backfilling
    over rigid node x walltime reservations. *)

type release =
  | Walltime  (** slots held for the whole estimate (rigid) *)
  | Actual    (** oracle variant: freed at completion *)

type schedule = {
  placements : Job.placement list;
  makespan : float;
  capacity : int;
}

val fcfs : ?release:release -> capacity:int -> Job.t list -> schedule
(** Strict FCFS: no overtaking. *)

val backfill : ?release:release -> capacity:int -> Job.t list -> schedule
(** Earliest-fit in arrival order; later jobs may fill earlier holes. *)

val preemptive_lower_bound : capacity:int -> Job.t list -> float
(** Ideal-preemption makespan bound (Figure 1 (c) intuition). *)

val simulate : ?backfill:bool -> capacity:int -> Job.t list -> schedule
(** Event-driven (online) scheduling: nodes are freed at actual job
    completion and the queue is reconsidered at every event — how a real
    RMS behaves, as opposed to the rigid slot reservations of {!fcfs}.
    Jobs exceeding their walltime are killed at the end of the slot. *)

val used_nodes : ?release:release -> schedule -> float -> int

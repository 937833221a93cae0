(** The static-allocation FCFS baseline (Figures 12 and 13): vjobs
    submitted as rigid node x walltime reservations. *)

module Trace = Vworkload.Trace

val nodes_required : node_cpu:int -> node_mem:int -> Trace.t -> int
(** Nodes a user must book: FFD bin count with a full processing unit
    per VM. *)

val job_of_trace : node_cpu:int -> node_mem:int -> id:int -> Trace.t -> Job.t
(** The rigid job a user submits: {!nodes_required} nodes for the
    trace's dedicated-resource duration times 1.5 (users overestimate
    their walltime). *)

type run = {
  schedule : Rms.schedule;
  traces : (Job.t * Trace.t) list;
}

val run : capacity:int -> node_cpu:int -> node_mem:int -> Trace.t list -> run
(** Strict FCFS ({!Rms.fcfs}) over the traces' jobs, slots held for the
    whole walltime. *)

val makespan : run -> float

val demand_at : Vworkload.Program.t -> float -> int
(** CPU demand of a program [offset] seconds after launch on dedicated
    resources. *)

val sample : run -> float -> int * int
(** [(memory_mb, cpu_demand)] of the running jobs at a given time. *)

val series : ?period:float -> run -> (float * (int * int)) list
(** Sampled utilization over the whole schedule (Figure 13 baseline). *)

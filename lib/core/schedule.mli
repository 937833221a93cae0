(** Timed view of a reconfiguration plan: estimated start/finish times
    of every action and the estimated switch duration, without running
    the simulator (contention excluded). *)

type durations = {
  boot_s : float;
  shutdown_s : float;
  migrate_mb_s : float;
  migrate_latency_s : float;
  suspend_mb_s : float;
  resume_mb_s : float;
  transfer_mb_s : float;
  pipeline_gap_s : float;
  ram_suspend_s : float;
  ram_resume_s : float;
}

val durations : durations
(** The Figure 3 measurements: the one duration table, shared with the
    simulator's performance model. *)

val action_duration : Configuration.t -> Action.t -> float
(** Contention-free duration of an action on the given configuration
    (only the VM's memory size is read). *)

val is_pipelined : Action.t -> bool
(** Suspends and resumes (to disk or RAM): inside a pool they start
    [pipeline_gap_s] apart instead of together. *)

type entry = { action : Action.t; start : float; finish : float }
type t

val of_plan : Configuration.t -> Plan.t -> t
val entries : t -> entry list
val makespan : t -> float
(** Estimated duration of the whole cluster-wide context switch. *)

val entry_for : t -> Vm.id -> entry option
val pp : Format.formatter -> t -> unit

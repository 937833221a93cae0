(** Causal timeline of executed cluster-wide context switches,
    reconstructed from write-ahead journal records.

    Every {!Entropy_journal.Record.Switch_begin} opens a switch; its
    plan is flattened in pool order and joined with the Rgraph
    dependency edges ({!Entropy_core.Continuous.vm_prerequisites}), so
    each executed action carries its true predecessors: the same-VM
    dependency (bypass legs, disk-break suspend/resume pairs), the pool
    barrier that opened its pool, or nothing but the switch start. The
    action records then fill in per-attempt start times and the terminal
    outcome. The fold is total: torn tails, kills mid-pool and journals
    whose records do not match the plan degrade to partial timelines
    instead of errors. *)

open Entropy_core

type terminal =
  | Done of float  (** simulated completion time *)
  | Failed of float  (** terminal failure time (retries exhausted) *)

val terminal_at : terminal -> float

type action_tl = {
  index : int;  (** flat pool-order index into the plan *)
  action : Action.t;
  plan_pool : int;  (** pool the plan put the action in *)
  record_pool : int;
      (** pool the journal records carried ([plan_pool] when the
          action was never journaled). It equals [plan_pool] for
          journals the executor wrote; barrier reasoning follows this
          field, so a journal whose records disagree with the plan is
          analysed by the pools it observed *)
  prereq : int option;  (** previous plan action on the same VM *)
  attempts : float list;  (** supervised attempt start times, ascending *)
  terminal : terminal option;  (** [None]: still in flight at the cut *)
  est_s : float;
      (** planner-side contention-free duration estimate
          ({!Schedule.action_duration}) *)
}

type switch_tl = {
  switch : int;
  begun_at : float;
  source : Configuration.t;
  target : Configuration.t;
  plan : Plan.t;
  demand : Demand.t;
  actions : action_tl array;  (** plan order *)
  commits : (int * float) list;  (** [Pool_committed] times, pool order *)
  end_at : float option;  (** [Switch_end] time, [None] when cut short *)
  aborted : bool;
  last_event : float;  (** latest record time — the observable horizon *)
  unmatched : int;  (** action records that matched no plan action *)
}

val of_records : Entropy_journal.Record.t list -> switch_tl list
(** All switches in the journal, in first-appearance order. Records
    whose switch id has no [Switch_begin] in the list are ignored. *)

val makespan : switch_tl -> float
(** [last_event - begun_at]: observed extent of the switch, whether it
    committed, aborted or was cut mid-flight. *)

val executed : action_tl -> bool
(** The journal saw this action at all (an attempt or a terminal). *)

val first_start : action_tl -> float option
val finish_time : switch_tl -> action_tl -> float
(** Terminal time, or the switch horizon for in-flight actions. *)

(** Causal timeline of executed cluster-wide context switches: the
    switches of {!Entropy_journal.Recovery.switches}, the one fold of
    switch records, with each slot's true predecessor — the same-VM
    dependency (bypass legs, disk-break suspend/resume pairs,
    {!Entropy_core.Continuous.vm_prerequisites}) — and the planner's
    duration estimate. Torn tails, kills mid-pool and records that match
    no plan action give partial timelines, not errors. *)

open Entropy_core

type terminal = Entropy_journal.Recovery.terminal =
  | Done of float
  | Failed of float

val terminal_at : terminal -> float

(** A {!Entropy_journal.Recovery.slot} with its plan index,
    same-VM predecessor and duration estimate. Barrier reasoning follows
    [record_pool], so a journal whose records disagree with the plan is
    analysed by the pools it observed. *)
type action_tl = {
  index : int;  (** flat pool-order index into the plan *)
  action : Action.t;
  record_pool : int;
  prereq : int option;  (** previous plan action on the same VM *)
  attempts : float list;
  terminal : terminal option;  (** [None]: still in flight at the cut *)
  est_s : float;
      (** planner-side contention-free duration estimate
          ({!Schedule.action_duration}) *)
}

(** A {!Entropy_journal.Recovery.switch}, its slots made
    {!action_tl}s. *)
type switch_tl = {
  switch : int;
  begun_at : float;
  source : Configuration.t;
  plan : Plan.t;
  actions : action_tl array;  (** plan order *)
  commits : (int * float) list;
  end_at : float option;
  aborted : bool;
  last_event : float;  (** latest record time — the observable horizon *)
  unmatched : int;
}

val of_records : Entropy_journal.Record.t list -> switch_tl list
(** All switches in the journal, in begin order
    ({!Entropy_journal.Recovery.switches}). *)

val makespan : switch_tl -> float
(** [last_event - begun_at]: observed extent of the switch, whether it
    committed, aborted or was cut mid-flight. *)

val executed : action_tl -> bool
(** The journal saw this action at all (an attempt or a terminal). *)

val first_start : action_tl -> float option
val finish_time : switch_tl -> action_tl -> float
(** Terminal time, or the switch horizon for in-flight actions. *)

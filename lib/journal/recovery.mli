(** The one reader of switch records, and crash recovery on top of it.

    {!switches} folds a journal into one value per switch, with a slot
    per plan action. The flight recorder's timelines, the model
    checker's write-ahead check and crash replay all read these slots.

    Replay reconstructs the last switch begun from the record stream.
    Reconciliation then classifies every VM by comparing the observed
    configuration with the chain of states the journaled plan walks it
    through: a VM observed in its final chain state is done, a VM
    observed somewhere earlier along the chain is pending (its remaining
    actions re-run), and a VM observed outside its chain has diverged
    and is frozen ({!Rgraph.salvage_target}). A clean reconciliation
    yields a rebuilt plan from the observation to the salvaged target; a
    divergent one hands its residue to {!Entropy_fault.Repair.repair}. *)

open Entropy_core

type terminal =
  | Done of float  (** simulated completion time *)
  | Failed of float  (** terminal failure time (retries exhausted) *)

val terminal_at : terminal -> float

type slot = {
  action : Action.t;
  plan_pool : int;  (** pool the plan put the action in *)
  record_pool : int;
      (** pool the action's records carried ([plan_pool] when none
          matched). It equals [plan_pool] for journals the executor
          wrote *)
  attempts : float list;  (** supervised attempt start times, in order *)
  terminal : terminal option;  (** [None]: no terminal record (yet) *)
}

type switch = {
  switch : int;
  begun_at : float;
  source : Configuration.t;
  target : Configuration.t;
  plan : Plan.t;
  demand : Demand.t;
  seed : int option;  (** fault-injector seed, when one was journaled *)
  slots : slot array;  (** one per plan action, flattened pool order *)
  commits : (int * float) list;  (** [Pool_committed] records, in order *)
  end_at : float option;  (** [Switch_end] time, [None] when cut short *)
  aborted : bool;
  last_event : float;  (** latest record time — the observable horizon *)
  unmatched : int;  (** action records that matched no slot *)
}

val switches : Record.t list -> switch list
(** Every switch of the journal, in begin order. An action record goes
    to the most recent [Switch_begin] with its switch id and fills the
    slot with the same action, preferring a slot with no terminal
    outcome, then one whose plan pool is the record's, then (for a
    terminal record) one already started, the first such slot on a
    tie. Linear in the records. Records with no begun switch
    are ignored, a record that matches no slot counts in [unmatched],
    and the fold never raises: torn tails and kills mid-pool give
    partial switches. *)

val replay : Record.t list -> switch option
(** The last switch begun in the journal, folded from its
    [Switch_begin] only; [None] when there is none. Runs under the
    [journal.replay] span. *)

val done_actions : switch -> Action.t list
val failed_actions : switch -> Action.t list
val in_flight : switch -> Action.t list
(** In plan order, the actions whose slot holds a [Done] outcome, a
    [Failed] outcome (the VM kept its previous state), or attempts but
    no outcome (interrupted by the crash). *)

val projected_config : switch -> Configuration.t
(** The source configuration with the done actions applied in plan
    order — what the cluster should look like according to the journal
    alone. Actions whose precondition no longer holds are skipped, so
    this is total even on odd journals. *)

type reconciliation = {
  target : Configuration.t;
      (** normalized, salvaged target the resume aims at *)
  plan : Plan.t option;
      (** rebuilt resume plan from the observation; [None] when the
          residue is non-clean or the planner is stuck — hand the
          residue to repair instead *)
  done_vms : Vm.id list;
  pending_vms : Vm.id list;
  frozen_vms : Vm.id list;
  residue : Entropy_fault.Repair.residue;
      (** frozen VMs that are not benign (a VM observed [Terminated]
          when its vjob simply finished is frozen but clean), plus
          crashed nodes the target still uses for live VMs *)
}

val reconcile :
  ?vjobs:Vjob.t list -> state:switch -> observed:Configuration.t ->
  unit -> reconciliation
(** Raises [Invalid_argument] when [observed] disagrees with the
    journaled configurations on VM or node count. *)

type resume = {
  state : switch;  (** the last switch replayed from the journal *)
  reconciliation : reconciliation;
  target : Configuration.t;  (** where the resume plan ends *)
  plan : Plan.t;
      (** empty when the residue leaves nothing to repair towards: the
          caller's loop decides afresh *)
  repaired : bool;
      (** the plan came from {!Entropy_fault.Repair.repair} (divergent
          residue or stuck planner) rather than straight reconciliation *)
}

val resume_plan :
  vjobs:Vjob.t list -> observed:Configuration.t -> switch -> resume
(** The resume derivation shared by the simulated runner and the daemon:
    {!reconcile} the replayed switch against [observed] over the [vjobs]
    not yet terminated there, and hand a non-clean residue (or a stuck
    planner) to {!Entropy_fault.Repair.repair}. *)

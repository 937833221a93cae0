(** Crash recovery: replay a journal, reconcile against a fresh
    observation, and derive an idempotent resume plan.

    Replay reconstructs the last in-flight switch from the record
    stream. Reconciliation then classifies every VM by comparing the
    observed configuration with the chain of states the journaled plan
    walks it through: a VM observed in its final chain state is done, a
    VM observed somewhere earlier along the chain is pending (its
    remaining actions re-run), and a VM observed outside its chain has
    diverged and is frozen ({!Rgraph.salvage_target}). A clean
    reconciliation yields a rebuilt plan from the observation to the
    salvaged target; a divergent one returns the residue for
    {!Entropy_fault.Repair.repair_residue}. *)

open Entropy_core

type switch_state = {
  switch : int;
  begun_at : float;
  source : Configuration.t;
  target : Configuration.t;
  plan : Plan.t;
  demand : Demand.t;
  seed : int option;
  done_actions : (int * Action.t) list;
      (** [(pool, action)] with a terminal success record, journal order *)
  failed_actions : (int * Action.t) list;
      (** terminal failure: the VM kept its previous state *)
  in_flight : (int * Action.t) list;
      (** started but no terminal record — interrupted by the crash *)
  committed_pools : int list;
  ended : bool;  (** a {!Record.Switch_end} was journaled *)
  aborted : bool;
}

val replay : Record.t list -> switch_state option
(** State of the last switch begun in the journal; [None] when no
    {!Record.Switch_begin} is present. Records of earlier switches are
    superseded. Runs under the [journal.replay] span. *)

val projected_config : switch_state -> Configuration.t
(** The source configuration with every journaled done action applied —
    what the cluster should look like according to the journal alone.
    Actions whose precondition no longer holds are skipped, so this is
    total even on odd journals. *)

type vm_class = Done | Pending | Frozen

type reconciliation = {
  target : Configuration.t;
      (** normalized, salvaged target the resume aims at *)
  plan : Plan.t option;
      (** rebuilt resume plan from the observation; [None] when the
          residue is non-clean or the planner is stuck — hand the
          residue to repair instead *)
  classes : (Vm.id * vm_class) list;  (** every VM, id order *)
  done_vms : Vm.id list;
  pending_vms : Vm.id list;
  frozen_vms : Vm.id list;
  residue : Entropy_fault.Repair.residue;
      (** frozen VMs that are not benign (a VM observed [Terminated]
          when its vjob simply finished is frozen but clean), plus
          crashed nodes the target still uses for live VMs *)
}

val reconcile :
  ?vjobs:Vjob.t list -> state:switch_state -> observed:Configuration.t ->
  unit -> reconciliation
(** Raises [Invalid_argument] when [observed] disagrees with the
    journaled configurations on VM or node count. *)

type resume = {
  state : switch_state;  (** the in-flight switch replayed from the journal *)
  reconciliation : reconciliation;
  target : Configuration.t;  (** where the resume plan ends *)
  plan : Plan.t;
      (** empty when the residue leaves nothing to repair towards: the
          caller's loop decides afresh *)
  repaired : bool;
      (** the plan came from {!Entropy_fault.Repair.repair_residue}
          (divergent residue or stuck planner) rather than straight
          reconciliation *)
}

val resume_plan :
  vjobs:Vjob.t list -> observed:Configuration.t -> switch_state -> resume
(** The resume derivation shared by the simulated runner and the daemon:
    {!reconcile} the replayed switch against [observed] over the [vjobs]
    not yet terminated there, and hand a non-clean residue (or a stuck
    planner) to {!Entropy_fault.Repair.repair_residue}. *)

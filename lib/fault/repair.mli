(** Plan repair after a degraded switch: salvage the surviving actions,
    or fall back to an immediate FFD-based replan. *)

open Entropy_core

type outcome = {
  source : [ `Salvaged | `Replanned ];
  target : Configuration.t;  (** where the repaired plan ends *)
  plan : Plan.t;             (** never empty *)
}

val pp_source : Format.formatter -> [ `Salvaged | `Replanned ] -> unit

val salvage :
  ?vjobs:Vjob.t list -> current:Configuration.t -> target:Configuration.t ->
  demand:Demand.t -> failed_vms:Vm.id list -> unit -> outcome option
(** Freeze the failed VMs at their current state
    ({!Rgraph.salvage_target}) and rebuild the plan from the mid-switch
    configuration — the dependency closure over the surviving actions.
    [None] when nothing survives or the planner is stuck. *)

val repair :
  ?heuristic:Ffd.heuristic -> ?rules:Placement_rules.t list ->
  ?vjobs:Vjob.t list -> current:Configuration.t -> target:Configuration.t ->
  demand:Demand.t -> queue:Vjob.t list -> failed_vms:Vm.id list ->
  lost_nodes:Node.id list -> unit -> outcome option
(** Salvage when no node was lost; otherwise re-run RJSP over the live
    queue and plan towards its FFD packing (also the fallback when
    salvage yields nothing). [queue] is the live, unterminated vjob
    list — vjobs reset to Waiting by a node crash resubmit through it. *)

type residue = { failed_vms : Vm.id list; lost_nodes : Node.id list }
(** What a crash-recovery reconciliation could not resolve on its own:
    VMs whose journaled action left them in a state the salvaged plan
    cannot carry forward, and crashed nodes the original target still
    uses. A clean residue means the resumed plan needs no repair. *)

val residue_ok : residue -> bool
val pp_residue : Format.formatter -> residue -> unit

(** The simulated cluster: VM workload progress, CPU sharing, contention
    from in-flight context-switch operations, vjob launch/completion. *)

open Entropy_core

type t

val create :
  engine:Engine.t -> config:Configuration.t -> vjobs:Vjob.t list ->
  programs:(Vm.id -> Vworkload.Program.t) -> unit -> t

val engine : t -> Engine.t
val config : t -> Configuration.t
val now : t -> float
val vjobs : t -> Vjob.t list

val set_config : t -> Configuration.t -> unit
(** Install a new configuration wholesale (a crash, a bookkeeping
    commit): checks every vjob for launch, marks every VM
    touched and recomputes, O(VMs). {!create} ends with the same call. *)

val apply_action : t -> Action.t -> unit
(** Apply one completed action ({!Action.apply}, whose {!Action.Invalid}
    it raises with the cluster unchanged), check launch only for the
    vjob owning the action's VM, and recompute. This is {!set_config}
    for the one-VM change the executor makes: no other vjob can launch,
    since a vjob whose VMs all run was launched by the check that
    followed the change completing it. *)

val on_change : t -> (unit -> unit) -> unit
(** Hook called after every rate recomputation. The daemon uses it to
    raise its completion trigger. *)

val demand : t -> Demand.t
(** Current per-VM CPU demand (full processing unit while computing). *)

val vm_demand : t -> Vm.id -> int
val cpu_readings : t -> int Chunked.t
(** What the monitoring daemons report: per VM, {!vm_demand}, or 0 once
    Terminated. O(1). A {!recompute} writes the readings that changed
    through one {!Chunked.edit}, so a vector this function returned
    never changes and shares every chunk that did not move since with
    the next one. *)

val rate : t -> Vm.id -> float
(** The VM's progress rate as of the last {!recompute}: phase progress
    per wall second (0 unless launched, unfinished and running). *)

val busy : ?except:Vm.id -> t -> Node.id -> bool
(** Node hosts a running VM computing at full speed, [except] aside.
    O(1): reads a per-node count and [except]'s contribution, both kept
    by {!recompute}, which every state or phase change is followed by. *)

val overloaded : t -> bool
(** Some node's running VMs demand more CPU, or its running and
    RAM-suspended VMs more memory, than it has: [Configuration.overloaded_nodes
    (config t) (demand t) <> []], in O(nodes) from the per-node totals
    that {!recompute} keeps from the touched VMs' contributions. *)

val node_decel : t -> Node.id -> float
val register_op : t -> nodes:Node.id list -> local:bool -> unit
val unregister_op : t -> nodes:Node.id list -> local:bool -> unit

val recompute : t -> unit
(** Bring the cluster up to date with the changes made since the last
    call. Each mutator marks the VMs and nodes it changed
    ({!apply_action}, a phase end and a launch their VMs,
    {!register_op}/{!unregister_op} the nodes whose contention factor
    moved). The touched VMs' contributions to the per-node totals and
    their readings are refreshed; then the touched VMs and every VM
    running on a node whose CPU total, contention or capacity changed
    are re-rated, in ascending VM id. Of those, only VMs whose rate
    changed, or whose phase advanced, that launched or that a crash
    reset, bank their progress and get a new phase-end event (the
    superseded one is cancelled); every other VM keeps its pending
    event. Costs O(touched VMs + VMs on touched nodes), which the
    [sim.recompute.rated] counter sums (with [sim.recompute] counting
    the calls) when observability is on. *)

val node_alive : t -> Node.id -> bool

val crash_node : t -> Node.id -> Vjob.id list
(** Permanently crash a node: it keeps its identity but loses all
    capacity ({!Node.crashed}). Every incomplete vjob with a VM running
    on — or an image stored on — the node loses its work: all of its
    VMs return to Waiting with their original program, so the next RJSP
    round resubmits the vjob from scratch. VMs of completed vjobs still
    parked on the node become Terminated. Returns the resubmitted vjob
    ids; idempotent (a second crash of the same node returns []). *)

val completions : t -> (Vjob.id * float) list
(** Completed vjobs and their completion times, sorted by id. *)

val completion_count : t -> int
(** [List.length (completions t)], in O(1). *)

val completed : t -> Vjob.t -> bool
val all_complete : t -> bool

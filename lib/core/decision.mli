(** Decision modules: from a cluster observation to a target
    configuration and its reconfiguration plan. *)

type observation = {
  config : Configuration.t;
  demand : Demand.t;
  queue : Vjob.t list;       (** non-terminated vjobs *)
  finished : Vjob.id list;   (** flagged complete by their owners *)
}

type t = {
  name : string;
  decide : observation -> Optimizer.result;
}

val apply_stops :
  Configuration.t -> Vjob.t list -> Vjob.id list -> Configuration.t
(** Target states of the finished vjobs' VMs (terminated). *)

val prefer_ram_suspends :
  current:Configuration.t -> Configuration.t -> Configuration.t
(** Flip disk suspends to RAM suspends wherever the target leaves enough
    memory on the VM's host (paper, section 7 future work). *)

val consolidation_with :
  name:string -> ?heuristic:Ffd.heuristic ->
  ?rules:Placement_rules.t list -> ?suspend_to_ram:bool ->
  (current:Configuration.t -> demand:Demand.t -> vjobs:Vjob.t list ->
   placed:Vm.id list -> target_base:Configuration.t -> Optimizer.result) ->
  t
(** The consolidation flow (stops, RJSP trial packing, optional
    suspend-to-RAM preference) around a pluggable placement optimiser:
    the callback receives the RJSP outcome ([placed] VMs to re-place on
    top of [target_base]) and returns the chosen target and plan.
    Lets alternative engines — e.g. the lib/place portfolio — reuse the
    whole decision flow. *)

val consolidation :
  ?cp_timeout:float -> ?cp_node_limit:int -> ?heuristic:Ffd.heuristic ->
  ?rules:Placement_rules.t list -> ?suspend_to_ram:bool -> unit -> t
(** The paper's sample module: stops, RJSP (FCFS + FFD trial packing),
    CP optimisation of the context switch. Placement rules are enforced
    both by the heuristic trial packing and by the optimiser; with
    [suspend_to_ram] the module keeps suspended images in RAM when
    memory allows, trading memory for nearly-free resumes. *)

val weighted :
  ?cp_timeout:float -> ?cp_node_limit:int -> ?heuristic:Ffd.heuristic ->
  ?rules:Placement_rules.t list -> ?suspend_to_ram:bool ->
  weight:(Vjob.t -> int) -> unit -> t
(** Priority-queue variant of {!consolidation}: the RJSP scans vjobs by
    decreasing weight (FCFS among equals), so heavier vjobs are admitted
    first and suspended last. *)

val ffd_only : unit -> t
(** Ablation / Figure 10 baseline: first viable FFD configuration, no
    cost optimisation. *)

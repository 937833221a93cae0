(** Independent plan verifier: symbolic pool-by-pool replay of a
    {!Entropy_core.Plan.t} against its source configuration, re-checking
    every paper-level invariant from first principles. It is the one
    statement of a valid plan; [Entropy_check.Model] states what a
    valid execution of one is.

    Checked invariants: per-pool simultaneous feasibility (per
    resource), Figure 2 life-cycle preconditions, exact applicability,
    reconfiguration-graph soundness (including bypass migrations and
    disk cycle breaks), no worsened overload at any pool boundary, vjob
    suspend/resume grouping, exact termination in the target, and an
    independent re-derivation of the Table 1 / section 4.2 plan cost
    cross-checked against [Plan.cost]. *)

open Entropy_core

type resource = Cpu | Mem

type finding =
  | Claim_overflow of {
      pool : int;
      action : Action.t;
      node : Node.id;
      resource : resource;
      needed : int;
      available : int;
    }  (** a pool's parallel claims exceed the pool-start free resources *)
  | Lifecycle_violation of {
      pool : int;
      action : Action.t;
      state : Lifecycle.state;
    }  (** the action's transition is illegal from the VM's state (Fig. 2) *)
  | Invalid_application of { pool : int; action : Action.t; reason : string }
      (** the VM is not in the precise state the action expects *)
  | Duplicate_vm_action of { pool : int; action : Action.t }
      (** second action on the same VM within one (parallel) pool *)
  | Off_graph_action of { pool : int; action : Action.t }
      (** matches no pending reconfiguration-graph action and is no
          recognised cycle break (bypass migration / disk break) *)
  | Unreachable_target of { pool : int; vm : Vm.id; reason : string }
  | Worsened_overload of {
      pool : int;
      node : Node.id;
      resource : resource;
      load : int;
      capacity : int;
      initial_excess : int;
    }
      (** a pool boundary leaves a node further over capacity than the
          source configuration already had it *)
  | Vjob_split of {
      vjob : string;
      kind : [ `Suspend | `Resume ];
      pools : int list;
    }  (** a vjob's suspends or resumes span several pools *)
  | Wrong_final_state of {
      vm : Vm.id;
      expected : Configuration.vm_state;
      got : Configuration.vm_state;
    }
  | Cost_mismatch of { reported : int; derived : int }
      (** [Plan.cost] disagrees with the independent re-derivation *)
  | Resume_divergence of {
      vm : Vm.id;
      frozen : bool;
      expected : Configuration.vm_state;
      got : Configuration.vm_state;
    }
      (** crash resume: the resumed plan's end state for the VM differs
          from what the original switch promised (live VM) or from the
          observation it was frozen at (frozen VM) *)

val verify :
  ?vjobs:Vjob.t list ->
  current:Configuration.t ->
  target:Configuration.t ->
  demand:Demand.t ->
  Plan.t ->
  finding list
(** Replay the plan and return every finding, in replay order. The
    target's sleeping locations are normalized against [current] first,
    exactly as the planner does. [vjobs] enables the grouping check. *)

val is_clean :
  ?vjobs:Vjob.t list ->
  current:Configuration.t ->
  target:Configuration.t ->
  demand:Demand.t ->
  Plan.t ->
  bool

val verify_resume :
  ?vjobs:Vjob.t list ->
  source:Configuration.t ->
  original:Plan.t ->
  observed:Configuration.t ->
  target:Configuration.t ->
  frozen:Vm.id list ->
  demand:Demand.t ->
  Plan.t ->
  finding list
(** Verify a crash-resume plan: the full {!verify} replay of the resume
    plan from [observed] to [target], plus the equivalence check that
    resume plan + executed prefix ≡ the original switch — every
    non-frozen VM's state in [target] equals where the [original] plan
    (replayed from the journaled [source]) would have left it, and every
    frozen VM stays exactly as [observed]. *)

val table1_action_cost : Configuration.t -> Action.t -> int
(** Independent restatement of the Table 1 action cost model. *)

val rederive_cost : Configuration.t -> Action.t list list -> int
(** Independent restatement of the section 4.2 sequencing cost. *)

val cost_cross_check : Configuration.t -> Plan.t -> int * int
(** [(reported, derived)]: [Plan.cost] next to the independent Table 1 /
    section 4.2 re-derivation — the estimate cross-check printed by
    [entropyctl explain] before comparing against executed time. *)

val pp_finding : Format.formatter -> finding -> unit
val pp_report : Format.formatter -> finding list -> unit

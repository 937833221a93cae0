(** Reconfiguration planning (paper, section 4.1): turn the gap between
    two configurations into a sequence of pools of parallel actions,
    breaking inter-dependent migration cycles with bypass migrations. *)

exception Stuck of string
(** Raised when the planner cannot make progress — the target is not
    reachable (e.g. not viable). Migration cycles are broken with a
    bypass migration to a pivot node when one has room, and through the
    disk (suspend, then resume at the destination) otherwise. *)

val select_pool :
  Configuration.free -> Configuration.t -> Demand.t -> Action.t list ->
  Action.t list * Action.t list
(** [(selected, postponed)]: a maximal set of actions simultaneously
    feasible from the given configuration, whose free view
    ({!Configuration.free_view}) is given, and the rest. Claims are
    charged to a copy of the view. *)

val find_migration_cycle :
  Action.t list -> (Vm.id * Node.id * Node.id) list option
(** A cycle of inter-dependent migrations among blocked actions, as
    [(vm, src, dst)] triples, when one exists. *)

val bypass_migration :
  Configuration.free -> Configuration.t -> Demand.t ->
  (Vm.id * Node.id * Node.id) list -> Action.t option
(** The cheapest feasible migration of a cycle VM to a pivot node outside
    the cycle, given the configuration's free view. *)

val next_pool :
  Configuration.free -> target:Configuration.t -> demand:Demand.t ->
  Configuration.t -> (Action.t list * Configuration.t) option
(** [next_pool view ~target ~demand config]: the next pool from
    [config] towards [target] (with its sleeping locations normalized,
    {!Rgraph.normalize_sleeping}) and the configuration it leads to, or
    [None] when [config] already reaches [target]. [view] must be
    [config]'s free view on entry; it becomes the next configuration's,
    shifted by {!Configuration.shift_free}. {!build} is this step from
    [current] until it returns [None]. Raises like {!build}. *)

val build :
  current:Configuration.t -> target:Configuration.t -> demand:Demand.t ->
  unit -> Plan.t
(** Build a feasible plan from [current] to [target]. Raises {!Stuck}
    when no plan exists (see above), {!Rgraph.Unreachable} on impossible
    per-VM transitions. *)

val build_plan :
  ?vjobs:Vjob.t list -> current:Configuration.t -> target:Configuration.t ->
  demand:Demand.t -> unit -> Plan.t
(** {!build} followed by {!Consistency.enforce} when [vjobs] is given. *)

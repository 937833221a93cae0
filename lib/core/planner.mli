(** Reconfiguration planning (paper, section 4.1): turn the gap between
    two configurations into a sequence of pools of parallel actions,
    breaking inter-dependent migration cycles with bypass migrations. *)

exception Stuck of string
(** Raised when the planner cannot make progress — the target is not
    reachable (e.g. not viable). Migration cycles are broken with a
    bypass migration to a pivot node when one has room, and through the
    disk (suspend, then resume at the destination) otherwise. *)

type groups
(** Which vjob each VM the switch moves belongs to, tabled once per
    plan. With it the
    planner keeps the consistency rule of section 4.1 as it selects
    pools: a vjob's resumes enter one pool together, once all of them
    fit and the vjob has nothing else pending; its suspends share one
    pool; each pool is in VM-name order, which the executor pipelines. *)

val groups :
  current:Configuration.t -> target:Configuration.t -> Vjob.t list -> groups

val next_pool :
  groups -> Configuration.free -> target:Configuration.t ->
  demand:Demand.t -> Configuration.t -> (Action.t list * Configuration.t) option
(** [next_pool groups view ~target ~demand config]: the next pool from
    [config] towards [target] (with its sleeping locations normalized,
    {!Rgraph.normalize_sleeping}) and the configuration it leads to, or
    [None] when [config] already reaches [target]. [view] must be
    [config]'s free view on entry; it becomes the next configuration's,
    shifted by {!Configuration.shift_free}. When no pivot node can take
    a cycle VM, the pool suspends it and every other VM of its vjob
    with a pending migration (none of which is feasible, since no
    action is). {!build} is this step from
    [current] until it returns [None]. Raises like {!build}. *)

val build :
  ?vjobs:Vjob.t list -> current:Configuration.t -> target:Configuration.t ->
  demand:Demand.t -> unit -> Plan.t
(** Build a feasible plan from [current] to [target], grouping the
    actions of [vjobs] when given. Raises {!Stuck} when no plan exists
    (see above), {!Rgraph.Unreachable} on impossible per-VM
    transitions. *)

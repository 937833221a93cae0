(** The reconfiguration cost model (paper, Table 1 and section 4.2).
    Costs are in MB of VM memory to manipulate. *)

val run_cost : int
val stop_cost : int

val action : Configuration.t -> Action.t -> int
(** Local cost: 0 for run/stop, [Dm] for migrate and suspend, [Dm] for a
    local resume and [2*Dm] for a remote one. *)

val pool : Configuration.t -> Action.t list -> int
(** Cost of a pool = cost of its most expensive action. *)

val plan : Configuration.t -> Action.t list list -> int
(** Cost of a plan = sum over actions of (cost of preceding pools + local
    cost). *)

val lower_bound : current:Configuration.t -> target:Configuration.t -> int
(** Admissible lower bound on any plan between two configurations (sum of
    unavoidable local costs). Not on the search path: it is the reference
    a tier-1 property checks every built plan's cost against. *)

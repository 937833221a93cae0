(** The CP optimiser (paper, section 4.3): search the viable placements
    of the running VMs for one whose reconfiguration plan cost is
    minimal, with branch & bound and a timeout. Placement rules
    ({!Placement_rules}) are maintained during the optimisation — the
    paper's section 7 future work. *)

type result = {
  target : Configuration.t;  (** the chosen viable target configuration *)
  plan : Plan.t;             (** feasible plan from current to target *)
  cost : int;                (** true plan cost (Table 1 model) *)
  improved : bool;           (** the search beat the heuristic fallback *)
  rules_satisfied : bool;    (** the placement rules hold in [target] *)
  stats : Fdcp.Search.stats option;  (** [None] when no search ran *)
}

val default_timeout : float

type model = {
  store : Fdcp.Store.t;
  hvars : Fdcp.Var.t array;
      (** placement variables, one per placed VM, valued over nodes *)
  placed_vms : Vm.id array;  (** [placed_vms.(i)] is [hvars.(i)]'s VM *)
  obj : Fdcp.Var.t;  (** sum of local action costs *)
  home : int array;
      (** [home.(i)]: the node [placed_vms.(i)] is tried on first (its
          current host or the node holding its image), [-1] for a
          waiting VM *)
  var_select : Fdcp.Search.var_select;
      (** VMs grouped by current host, most demanding first in a group *)
  val_iter : Fdcp.Search.val_iter;
      (** the home node first, then nodes by decreasing residual
          capacity *)
  rules_postable : bool;
      (** false when posting the placement rules already failed: the
          model is inconsistent and no search should run *)
  lower_bound : int;
      (** admissible lower bound on [obj] over the viable placements:
          every VM's stay cost, plus per node the cheapest fractional
          cover of the load its homed VMs and the RAM-suspended VMs
          pinned there put beyond its residual capacity, in the costlier
          dimension. {!search} stops once its incumbent meets it; it is
          never posted *)
}

val build_model :
  ?rules:Placement_rules.t list ->
  current:Configuration.t -> demand:Demand.t -> placed:Vm.id list ->
  target_base:Configuration.t -> unit -> model
(** The CP model {!optimize} searches: packing constraints for CPU and
    memory viability, placement-rule constraints, the cost objective and
    the branching order. Exposed for the analysis passes (model linter,
    propagator sanitizer, [entropyctl lint]) and for the portfolio,
    which searches one model many times. *)

val search :
  ?timeout:float -> ?node_limit:int -> ?below:int ->
  ?vars:Fdcp.Var.t array -> model -> (int * int array) option *
  Fdcp.Search.stats
(** Branch & bound on the model's objective under its branching order,
    as {!optimize} runs it. [below] bounds the objective strictly
    (posted as [obj <= max 0 (below - 1)]). [vars] (default [hvars])
    are the variables branched on and snapshotted; the caller binds
    every other placement variable first. The store is left as it was
    found. It stops as soon as its incumbent meets [m.lower_bound] or
    the objective's root lower bound ({!Fdcp.Search.minimize}). *)

val placement_target :
  model -> target_base:Configuration.t -> int array -> Configuration.t
(** [placement_target m ~target_base hosts]: [target_base] with each
    [m.placed_vms.(i)] Running on [hosts.(i)]. *)

val report_stats : model -> unit
(** Add the model's per-propagator counters to the metrics registry
    (when [Obs.enabled]); once per model, after its last search. *)

val optimize :
  ?timeout:float -> ?node_limit:int ->
  ?vjobs:Vjob.t list -> ?rules:Placement_rules.t list ->
  ?incumbent_cost:int ->
  current:Configuration.t -> demand:Demand.t -> placed:Vm.id list ->
  target_base:Configuration.t -> fallback:Configuration.t -> unit -> result
(** [optimize ~current ~demand ~placed ~target_base ~fallback ()]
    re-places the VMs of [placed] (they will be Running) on top of
    [target_base] (which carries every other VM's target state), keeping
    the result viable and rule-compliant. [fallback] is a complete viable
    target (e.g. the RJSP FFD configuration) used when the search finds
    nothing better within the timeout; a rule-satisfying CP solution is
    preferred over a rule-violating fallback whatever the cost. The
    returned plan includes vjob consistency grouping when [vjobs] is
    given.

    [incumbent_cost] warm-starts branch & bound by posting an upper
    bound on the objective: the search only explores placements with a
    strictly smaller objective. Passing an incumbent plan's true cost
    preserves true-cost optimality (the objective is an admissible lower
    bound of the true cost, so no true-cost-better plan is pruned);
    passing an incumbent placement's objective value prunes harder but
    restricts the search to objective-better placements, which may
    exclude plans that win on sequencing penalties alone. *)

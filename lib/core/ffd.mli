(** Packing heuristics: First-Fit Decreasing (the paper's baseline) plus
    best-fit / worst-fit variants for ablations. Placement rules are
    honoured when provided. *)

type heuristic = First_fit | Best_fit | Worst_fit

val sort_decreasing :
  Configuration.t -> Demand.t -> Vm.id list -> Vm.id list
(** Decreasing (memory, CPU) demand order. *)

val place :
  ?heuristic:heuristic -> ?rules:Placement_rules.t list ->
  Configuration.t -> Demand.t -> Vm.id list -> Configuration.t option
(** Assign the VMs (distinct ids) as Running on the configuration
    (already-running VMs keep their hosts and resources); [None] when
    some VM does not fit under the capacities and rules. The
    placements are written in one {!Configuration.edit}. *)

val place_in :
  ?heuristic:heuristic -> ?rules:Placement_rules.t list ->
  Configuration.free -> Configuration.t -> Demand.t -> Vm.id list ->
  Configuration.t option
(** {!place} against a caller-held free view of the configuration,
    which it updates in place with the placed VMs' claims (and leaves
    partly claimed on [None]). A caller placing in turn on the
    configurations it gets back keeps one view, copying it (O(nodes))
    before a trial it may discard, instead of paying {!place}'s
    O(vms) view per call. *)

val fits :
  ?heuristic:heuristic -> ?rules:Placement_rules.t list ->
  Configuration.t -> Demand.t -> Vm.id list -> bool

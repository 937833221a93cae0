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
(** Assign the VMs as Running on the configuration (already-running VMs
    keep their hosts and resources); [None] when some VM does not fit
    under the capacities and rules. *)

val fits :
  ?heuristic:heuristic -> ?rules:Placement_rules.t list ->
  Configuration.t -> Demand.t -> Vm.id list -> bool

(** Large-neighbourhood search whose neighbourhoods the CP kernel
    repairs exactly, on the optimiser's own model.

    A placement is one host per VM of the model ([hosts.(i)] for
    [m.placed_vms.(i)]). A repair frees a neighbourhood, fixes every
    other VM at its host and runs the model's branch & bound for an
    objective below the incumbent's. The store is left as it was found,
    so one model serves every repair and the closing branch & bound.
    Placement rules are constraints of the model: every repair honours
    them. *)

open Entropy_core

val objective : Optimizer.model -> int array -> int option
(** The model's objective at a placement; [None] when the placement is
    not a solution of the model (a capacity, a rule or a pinned VM is
    violated, or a host is [-1]). *)

val repair :
  ?timeout:float -> node_limit:int -> Optimizer.model -> hosts:int array ->
  objective:int -> free:int list -> (int * int array) option
(** [repair m ~hosts ~objective ~free] re-places the VMs of indices
    [free] with every other VM fixed at its host, searching for an
    objective strictly below [objective] (the objective of [hosts]).
    [Some (objective', hosts')] is the best placement the search found
    within [node_limit] nodes and [timeout] seconds; [None] when it
    found none. Without [timeout] it is deterministic. *)

val run :
  ?seed:int -> deadline:float -> Optimizer.model -> hosts:int array ->
  objective:int -> accept:(int array -> bool) -> unit
(** Repair neighbourhoods of 20 search nodes each, alternately the VMs
    on two nodes and the VMs placed on or homed at one node (each node
    drawn through a random VM), starting from [hosts] of objective
    [objective]. A repair that lowers the objective is offered to
    [accept]; it becomes the incumbent when [accept] returns true.
    Stops at the absolute [deadline] (Unix time), at an objective of 0,
    or after two rounds per VM in a row without a new incumbent.
    Deterministic in [seed] up to the wall-clock cutoff. *)

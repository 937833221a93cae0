(** The solver portfolio: FFD seed, large-neighbourhood search whose
    neighbourhoods the CP kernel repairs ({!Lns}), then CP branch &
    bound bounded by the incumbent, all on one CP model under one
    wall-clock deadline. Every returned plan is viable per the
    independent verifier. *)

open Entropy_core

type engine = [ `Cp | `Portfolio ]
(** [`Cp]: CP B&B only (the paper's optimiser), for the whole deadline.
    [`Portfolio]: LNS for at most 60 % of the deadline, then CP B&B for
    the rest of it or 25 search nodes per placed VM, whichever ends
    first, with the incumbent's true cost posted as an upper bound. *)

val engine_to_string : engine -> string

type report = {
  result : Optimizer.result;  (** best verifier-viable outcome *)
  winner : string;  (** engine of the final incumbent:
                        "ffd", "lns" or "cp" *)
  ffd_cost : int;  (** true plan cost of the FFD fallback *)
  local_cost : int option;
      (** best LNS true cost, when an LNS repair improved the objective
          and its plan was materialised *)
  elapsed : float;
}

val solve :
  ?deadline:float -> ?engine:engine -> ?vjobs:Vjob.t list ->
  ?rules:Placement_rules.t list -> ?seed:int ->
  current:Configuration.t -> demand:Demand.t -> placed:Vm.id list ->
  target_base:Configuration.t -> fallback:Configuration.t -> unit ->
  report
(** Run the engines within [deadline] seconds (default 1.0). The contract
    matches {!Optimizer.optimize}: re-place [placed] on top of
    [target_base], [fallback] (e.g. the RJSP FFD configuration) is the
    instant incumbent; LNS starts from its placement when that
    placement satisfies the model (capacities and every placement
    rule), and CP B&B alone runs otherwise. A rule-satisfying result is
    preferred over a rule-violating fallback whatever the cost. One CP
    model serves both phases. Deterministic in [seed] up to the
    wall-clock cutoffs. *)

val decision :
  ?engine:engine -> ?deadline:float -> ?heuristic:Ffd.heuristic ->
  ?rules:Placement_rules.t list -> ?suspend_to_ram:bool -> unit ->
  Decision.t
(** The consolidation decision module with the portfolio as placement
    optimiser (via {!Decision.consolidation_with}); [`Cp] degrades to
    the plain {!Decision.consolidation}. *)

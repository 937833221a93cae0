(** The solver portfolio: FFD seed, interleaved SA/LNS time slices, CP
    branch & bound warm-started with the incumbent's true cost, all
    under one wall-clock deadline. Every returned plan is viable per the
    independent verifier. *)

open Entropy_core

type engine = [ `Cp | `Anneal | `Portfolio ]
(** [`Cp]: CP B&B only (the paper's optimiser). [`Anneal]: local search
    only (SA + LNS slices). [`Portfolio]: local search, then CP on the
    remaining budget with the incumbent posted as an upper bound. *)

val engine_to_string : engine -> string

type report = {
  result : Optimizer.result;  (** best verifier-viable outcome *)
  winner : string;  (** engine of the final incumbent:
                        "ffd", "sa", "lns" or "cp" *)
  ffd_cost : int;  (** true plan cost of the FFD fallback *)
  local_cost : int option;
      (** best local-search true cost, when local search ran and
          materialised a plan *)
  deadline : float;
  elapsed : float;
}

val solve :
  ?deadline:float -> ?engine:engine -> ?vjobs:Vjob.t list ->
  ?rules:Placement_rules.t list -> ?seed:int ->
  current:Configuration.t -> demand:Demand.t -> placed:Vm.id list ->
  target_base:Configuration.t -> fallback:Configuration.t -> unit ->
  report
(** Race the engines for [deadline] seconds (default 1.0). The contract
    matches {!Optimizer.optimize}: re-place [placed] on top of
    [target_base], [fallback] (e.g. the RJSP FFD configuration) is the
    instant incumbent. Relational placement rules (Spread/Gather/Quota)
    disable the local-search phase; Ban/Fence are honoured as node
    masks. Deterministic in [seed] up to wall-clock slicing. *)

val decision :
  ?engine:engine -> ?deadline:float -> ?heuristic:Ffd.heuristic ->
  ?rules:Placement_rules.t list -> ?suspend_to_ram:bool -> unit ->
  Decision.t
(** The consolidation decision module with the portfolio as placement
    optimiser (via {!Decision.consolidation_with}); [`Cp] degrades to
    the plain {!Decision.consolidation}. *)

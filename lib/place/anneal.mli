(** Simulated annealing over a placement state: Metropolis acceptance,
    geometric cooling, deadline- and step-bounded, monotone incumbent
    stream. *)

type outcome = {
  best_cost : int;
      (** best objective (estimator) value seen — not the plan cost *)
  best_hosts : int array;
  steps : int;
  accepted : int;
  incumbents : int;
}

val run :
  ?max_steps:int -> ?seed:int ->
  ?on_incumbent:(cost:int -> int array -> unit) ->
  deadline:float -> State.t -> outcome
(** Anneal the (complete) state until the absolute [deadline]
    (Unix time, read every 64 steps) or the step budget. The
    temperature starts at 1024 MB and cools by 0.9995 per step, floored
    at 1. [on_incumbent] fires on each strict
    improvement of the best cost with a host snapshot (owned by the
    annealer until the next improvement — copy to keep). On return the
    state is loaded with the best placement seen. Deterministic in
    [seed] apart from the wall-clock cutoff. *)

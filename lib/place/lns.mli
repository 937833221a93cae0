(** Large-neighbourhood search: eject a node's VMs, a vjob's VMs or a
    random handful, repair FFD-style against the Table 1 cost tables,
    roll back non-improving rounds. The state never degrades. *)

open Entropy_core

type outcome = {
  best_cost : int;
      (** best objective (estimator) value seen — not the plan cost *)
  best_hosts : int array;
  rounds : int;
  improved_rounds : int;
  incumbents : int;
}

val run :
  ?max_rounds:int -> ?seed:int -> ?vjobs:Vjob.t list -> deadline:float ->
  State.t -> outcome
(** Destroy/repair until the absolute [deadline] (Unix time, read every
    8 rounds) or the round budget. The random neighbourhood ejects up to
    8 VMs; [vjobs] enables the vjob-eject neighbourhood. On return the
    state holds the best placement seen. *)

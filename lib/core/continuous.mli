(** Continuous (event-driven) scheduling of a reconfiguration plan: each
    action starts as soon as its claim fits, instead of waiting for pool
    barriers — the Entropy 2 / BtrPlace refinement of the paper's pool
    execution. vjob suspend/resume grouping is preserved. It is an
    estimate only: every switch executes pool by pool, and this schedule
    answers what dropping the barriers would save. *)

type entry = { action : Action.t; start : float; finish : float }
type t

exception Stuck of string
(** Raised when the greedy earliest-start rule starves: on very tight
    clusters, an eagerly started action can occupy the pivot node a
    pending bypass migration was counting on. Rare (the plan's own pool
    order is always a valid execution); callers fall back to the
    pool-based estimate ({!Schedule}) when it happens. *)

val schedule :
  ?vjobs:Vjob.t list -> current:Configuration.t -> demand:Demand.t ->
  plan:Plan.t -> unit -> t
(** Earliest-start timing of the plan's actions under
    claim-at-start / free-at-completion semantics. *)

val entries : t -> entry list
(** In increasing start order. *)

val vm_prerequisites : Plan.t -> int option array
(** [prereq.(i)] is the index of the previous plan action on the same VM
    (bypass legs, disk-break suspend/resume pairs), which must complete
    before action [i] starts. *)

val makespan : t -> float
(** Never exceeds the pool-based estimate ({!Schedule.makespan}) for the
    same plan. *)

val pp : Format.formatter -> t -> unit

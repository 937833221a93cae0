(** The abstract transition system the checker explores: pool-based
    plan execution under adversarial timing.

    A state assigns every plan action a status (idle / in-flight /
    done) over a configuration. [Start i] makes action [i] in-flight
    (its destination claim becomes visible, an [Action_started] record
    is emitted); [Finish i] applies its effect after emitting the
    terminal record, preserving the executor's write-ahead order.
    Pools are barriers; draining one emits [Pool_committed], the last
    also [Switch_end]. Durations are abstracted away, so the reachable
    interleavings cover every timing the discrete-event executor could
    produce.

    {!accepts} holds the executor's own journals to the same model,
    through the fold the checker replays witnesses with. It takes three
    steps {!enabled} never offers, so exploration and its state counts
    do not see them: a retry ([Action_started] with attempt > 1 on an
    in-flight action) changes nothing; a terminal [Action_failed] moves
    the action, in flight or idle (a lost node fails actions that never
    started), to [Failed] with the configuration unchanged, and counts
    as drained for its pool; an aborted [Switch_end] closes the switch
    at a pool boundary after a failure. A switch with a failed action
    is not held to Termination and the cost at switch end; one cut off
    by a kill is a prefix path. *)

open Entropy_core

type ctx = {
  source : Configuration.t;
  target : Configuration.t;  (** sleeping locations normalized *)
  demand : Demand.t;
  vjobs : Vjob.t list;
  plan : Plan.t;
  actions : Action.t array;  (** pools flattened, global index *)
  pool_of : int array;
  n_pools : int;
  allowed_cpu : int array;
      (** per-node capacity plus the source's relative-overload
          allowance *)
  allowed_mem : int array;
  costs : int array;  (** Table 1 local cost per action *)
  total_cost : int;
  invariants : Invariant.id list;
  switch : int;
}

type status = Idle | In_flight | Done_ok | Failed

type state = {
  config : Configuration.t;
  status : status array;
  pool : int;
  cost : int;
  nsteps : int;
  rev_steps : Witness.step list;
  rev_records : Entropy_journal.Record.t list;
      (** newest first, [Switch_begin] at the bottom *)
}

val make_ctx :
  ?vjobs:Vjob.t list -> ?invariants:Invariant.id list ->
  source:Configuration.t -> target:Configuration.t -> demand:Demand.t ->
  Plan.t -> ctx

val want : ctx -> Invariant.id -> bool
val init : ctx -> state
val finished : ctx -> state -> bool

val key : state -> string
(** Canonical dedup key (the status vector determines the state). *)

val enabled : ctx -> state -> Witness.step list
(** Enabled steps in canonical order: starts of the current pool by
    index, then finishes of in-flight actions by index. Empty exactly
    when the switch completed. *)

val independent : ctx -> Witness.step -> Witness.step -> bool
(** Steps on disjoint VMs and disjoint nodes commute. *)

val apply : ctx -> state -> Witness.step -> state * Invariant.violation list
(** Take one step; the violations are those triggered by the transition
    itself (lifecycle, precedence, cost overshoot). *)

val state_violations : ctx -> state -> Invariant.violation list
(** Invariants evaluated on a state: capacity with in-flight claims,
    and termination/cost at switch end. *)

type move = Step of Witness.step | Fail of int
    (** [Fail i]: action [i]'s journaled terminal failure *)

val replay :
  ctx -> next:(state -> 'a -> (move option, 'e) result) -> 'a list ->
  state * Invariant.violation list * 'e option
(** The replay fold shared by witness and journal replay: from
    {!init}, [next] names the move each element makes, none (it changes
    no state), or refuses it, which ends the replay with the refusal.
    Returns the last state and every transition and state violation
    seen, oldest first. *)

val accepts :
  ctx -> Entropy_journal.Record.t list ->
  (state, Invariant.violation) result
(** Whether one switch's records (journal order, after its
    [Switch_begin]) are a path of the model. An [Action_started] with
    attempt 1 is [Start i], [i] the first idle plan action of the
    record's pool equal to its action, and an [Action_done] is
    [Finish i] of the first such in-flight one. [Pool_committed] and
    [Switch_end] must be the records the model emits at that point.
    [Error] carries the first violation, or the refused record with
    the invariant it breaks. *)

val witness : ?crash:Witness.crash -> state -> Witness.t
val records : state -> Entropy_journal.Record.t list
(** The journal trace of the state, oldest first. *)


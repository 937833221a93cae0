(** Critical-path extraction and makespan attribution over an executed
    switch, the journal fold's {!Entropy_journal.Recovery.switch}.
    {!analyze} prepares one view of it, where each action's per-switch
    readings are derived once: its same-VM predecessor
    ({!Entropy_core.Continuous.vm_prerequisites}), the planner's
    contention-free estimate ({!Entropy_core.Schedule.action_duration}),
    its first start and finish ({!Timeline.first_start},
    {!Timeline.finish_time}) and its enabling edge.

    Two backward walks share the enabling-edge machinery:

    {b Causal critical path} — from the last finisher, follow the edge
    that actually enabled each action (its same-VM dependency, the
    straggler that closed the previous pool, or the switch start). The
    resulting chain is contiguous in time, so its span equals the
    observed makespan.

    {b Attribution buckets} — walk the last finisher's own enabling
    chain, splitting every covered instant into exhaustive,
    non-overlapping buckets: action work (up to the contention-free
    estimate), contention (execution beyond the estimate, plus
    bandwidth-slot waits inside an open pool), pool-barrier wait
    (ready-but-blocked time of the chain), dependency wait, retry /
    backoff, and recovery (horizon tail beyond the last action; whole
    repair switches in {!aggregate}). The buckets sum to the makespan
    exactly in simulated time (up to float round-off, see {!t.exact}).

    What-if estimates replay the observed timings forward over the
    dependency/barrier DAG with one action freed (or every barrier
    removed), giving "makespan if X were free" without re-running the
    simulator. *)

open Entropy_core
module R := Entropy_journal.Recovery

type buckets = {
  work_s : float;
  contention_s : float;
  barrier_s : float;
  dependency_s : float;
  retry_s : float;
  recovery_s : float;
}

val bucket_total : buckets -> float

type edge =
  | Start  (** enabled by the switch itself *)
  | Dep of int  (** same-VM dependency on the given plan index *)
  | Barrier of int  (** waited for the given pool to commit *)

type step = {
  index : int;
  action : Action.t;
  pool : int;  (** record pool *)
  edge : edge;
  start_s : float;  (** first attempt, relative to switch begin *)
  finish_s : float;
  gap_s : float;  (** enabling-edge time to first attempt *)
  retry_s : float;
  work_s : float;
  contention_s : float;
}

type t = {
  switch : int;
  makespan_s : float;
  path : step list;  (** causal critical path, chronological *)
  path_span_s : float;  (** sum of step spans + tail; equals makespan *)
  tail_s : float;  (** horizon beyond the last finisher (0 normally) *)
  buckets : buckets;
  bucket_sum_s : float;
  exact : bool;  (** buckets (and path span) match makespan *)
  what_if : (int * float) list;
      (** [(index, makespan')] for the top-k critical actions freed *)
  no_barrier_makespan_s : float;
      (** forward replay with every pool barrier removed — what
          continuous execution of the same observations would cost *)
  est_makespan_s : float;  (** planner's estimate for this plan *)
  est_cost_mb : int;  (** [Plan.cost] (Table 1 / section 4.2) *)
  rederived_cost_mb : int;  (** independent verifier re-derivation *)
  drift : (int * float * float) list;
      (** [(index, est_s, observed_s)] final-attempt durations of
          completed actions vs the planner estimate *)
}

val analyze : ?top_k:int -> R.switch -> t
(** [top_k] (default 3) bounds the what-if list. *)

val what_if_free : R.switch -> int -> float
(** Makespan if the given plan action were free, by forward replay of
    the observed timings. *)

val repair_switches : R.switch list -> int list
(** Switch ids that are repair chains: their predecessor in the journal
    was degraded — aborted, or ended with terminally failed actions —
    and they began at the same engine instant it ended. *)

val aggregate : (R.switch * t) list -> buckets * float
(** Episode view across switches: non-repair switches contribute their
    buckets, repair switches contribute their whole makespan as
    recovery. Returns the summed buckets and the total switching time
    they decompose. *)

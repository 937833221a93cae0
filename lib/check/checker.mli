(** The switch model checker.

    {!check} explores the abstract execution model of a (source,
    target, plan) switch depth-first — every interleaving of action
    starts and finishes the pool barriers admit, up to trace
    equivalence (visited-state dedup plus sleep-set pruning of
    commuting steps) — evaluating the invariant catalogue at every
    state; at each state it also enumerates crash cuts of the journal
    trace (commit-point boundary × group-commit buffer × torn-frame
    byte cut) and re-checks recovery. Bounded by default ([depth]
    branching steps, then the canonical schedule); [exhaustive]
    disables the depth bound, sleep sets, and torn-offset sampling, so
    only trace-equivalent duplicates are skipped. [sim_runs]
    additionally replays the plan on the real discrete-event executor
    under enumerated tie-break schedules ({!Sim_check}).

    The first violation is minimized by delta debugging into a
    replayable {!Witness.t}. *)

open Entropy_core

type limits = {
  depth : int;  (** branching depth in bounded mode *)
  max_states : int;
  max_crash_checks : int;
  max_violations : int;  (** stop exploring after this many *)
  exhaustive : bool;
  crash : bool;  (** explore crash states *)
  torn : bool;  (** check torn-frame byte cuts *)
  sim_runs : int;  (** executor conformance runs; 0 disables *)
}

val default_limits : limits
(** depth 8, 200k states, 4k crash checks, 16 violations, bounded,
    crash+torn on, 8 sim runs. *)

type stats = {
  mutable states : int;
  mutable transitions : int;
  mutable deduped : int;
  mutable sleep_pruned : int;
  mutable crash_checks : int;
  mutable torn_cuts : int;
  mutable sim_runs : int;
  mutable sim_decision_points : int;
  mutable elapsed_s : float;
}

type counterexample = {
  violation : Invariant.violation;
  witness : Witness.t;
  minimized : Witness.t;
}

type report = {
  violations : Invariant.violation list;
  counterexample : counterexample option;
  stats : stats;
  complete : bool;
      (** the bounded/exhaustive exploration covered the whole space
          within the limits *)
  invariants : Invariant.id list;
  action_count : int;
  pool_count : int;
}

val check :
  ?vjobs:Vjob.t list -> ?invariants:Invariant.id list -> ?limits:limits ->
  source:Configuration.t -> target:Configuration.t -> demand:Demand.t ->
  Plan.t -> report

val replay : Model.ctx -> Witness.t -> Invariant.violation list option
(** Replay a witness on a {!Model.make_ctx} context (the one {!check}
    builds): [None] when its schedule is not executable
    (a step not enabled in sequence), otherwise every violation seen
    along it, including the crash-spec checks at its final state. *)

val report_to_json : report -> Entropy_obs.Json.t
val pp_report : Format.formatter -> report -> unit

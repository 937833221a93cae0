(** The paper's Fig. 4 loop — observe, decide, plan, execute — written
    once for its two pacings: the periodic {!Runner} re-decides on a
    30 s timer, the event-driven daemon on debounced events. A caller
    brings only its {!pacing}; the session owns the engine, cluster and
    collector, the 5 s monitor poll, the scripted crashes, the decision
    round, the journal's resume point and the switch execution: an
    empty plan's bookkeeping (a finished vjob's image discarded, a
    waiting VM cancelled) is committed directly; a non-empty plan runs
    pool by pool inside the write-ahead bracket ([Switch_begin] durable
    before the first action, [Switch_end] after the executor reports),
    aborting at the next pool boundary after a terminal failure when an
    injector is given, and a degraded switch is chased by at most 4
    {!Entropy_fault.Repair.repair} plans. *)

open Entropy_core

type repair = {
  at : float;  (** simulated time of the repair decision *)
  switch : int;
      (** journal switch id the repair plan executes under (0 when no
          journal is attached) — lets flight-recorder analyses join a
          repair back to its journaled switch *)
  source : [ `Salvaged | `Replanned ];
  before : Configuration.t;  (** mid-switch configuration repaired from *)
  target : Configuration.t;  (** where the repaired plan ends *)
  demand : Demand.t;  (** demand the repair was planned against *)
  queue : Vjob.t list;  (** live vjobs at repair time *)
  plan : Plan.t;
}

type settled =
  | Clean  (** the last switch lost no action, or no switch was needed *)
  | Nothing_to_repair
      (** the switch degraded and repair found no plan towards anything *)
  | Exhausted
      (** still degraded when the repair chain ran out (at once without
          an injector: unsupervised switches are never chased) *)

type t

val engine : t -> Engine.t
val cluster : t -> Cluster.t
val config : t -> Configuration.t
val now : t -> float

val finish : t -> unit
(** Mark the loop done: polls, scripted crashes and rounds stop. *)

val finished : t -> bool

val round :
  t -> cat:string -> name:string -> args:(string * Entropy_obs.Trace.arg) list ->
  Decision.t -> on_settled:(settled -> unit) -> unit
(** One decision round unless finished: poll, observe, decide over the
    [queue] (traced as span [name]), then commit an empty plan's
    bookkeeping or execute the plan as one switch; [Clean] at once on an
    empty queue. *)

val recover :
  vjobs:Vjob.t list -> Entropy_journal.Record.t list ->
  (Configuration.t * Entropy_journal.Recovery.resume) option
(** A crashed controller's resume point: the configuration its journal
    projects ({!Entropy_journal.Recovery.projected_config}) and the
    resume plan against it over [vjobs]
    ({!Entropy_journal.Recovery.resume_plan}), whether or not the last
    switch ended. [None] when the journal holds no switch. *)

type pacing = {
  start : resumed:bool -> unit;
      (** schedule the first round; [resumed] when a resume plan runs
          first, at 0.5 s *)
  on_settled : settled -> unit;  (** the resume plan settled *)
  on_poll : unit -> unit;  (** after each monitor poll *)
  on_crash : Node.id -> Vjob.id list -> unit;
      (** a scripted crash fired: the node, the vjobs it reset *)
  complete : unit -> bool;  (** no work is left *)
}

type outcome = {
  switches : Executor.record list;  (** executed switches, repairs included *)
  repairs : repair list;  (** repair plans, each recorded before it ran *)
  completions : (Vjob.t * float) list;  (** vjob, completion time *)
  makespan : float;  (** completion time of the last vjob *)
  final_config : Configuration.t;
  killed : bool;  (** stopped at [kill_at] before [complete] held *)
}

val loop :
  config:Configuration.t -> vjobs:Vjob.t list ->
  programs:(Vm.id -> Vworkload.Program.t) ->
  journal:Entropy_journal.Journal.t option ->
  injector:Entropy_fault.Injector.t option ->
  policy:Entropy_fault.Supervisor.policy option -> queue:(t -> Vjob.t list) ->
  crashes:(Node.id * float) list ->
  resume:Entropy_journal.Recovery.resume option -> kill_at:float option ->
  max_time:float -> (t -> pacing) -> outcome
(** Run the loop: build a session over a fresh engine, a cluster in
    [config] and a collector polling it, then its pacing; start the
    monitor poll and the [crashes]; schedule a non-empty [resume] plan;
    start the pacing; run to [min kill_at max_time]. [queue] yields the
    live vjobs rounds decide over and repairs plan over. Switch ids come
    from the journal (0 without one). *)

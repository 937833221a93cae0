(** One cluster-wide context switch, carried from a decision's result to
    a settled cluster — the execute half of the paper's Fig. 4 loop,
    shared by the periodic {!Runner} and the event-driven daemon.

    A session owns, in order:
    - the direct commit of an empty plan whose target differs from the
      current configuration by bookkeeping alone (a finished vjob's
      suspended image discarded, a waiting VM cancelled);
    - the write-ahead bracket: [Switch_begin] durable before the first
      action, [Switch_end] after the executor reports back;
    - pool-based execution, aborting at the next pool boundary after a
      terminal failure exactly when an injector is given;
    - the chase of a degraded switch by at most [max_repairs]
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

val create :
  cluster:Cluster.t -> collector:Vmonitor.Collector.t ->
  journal:Entropy_journal.Journal.t option ->
  injector:Entropy_fault.Injector.t option ->
  policy:Entropy_fault.Supervisor.policy option -> max_repairs:int ->
  queue:(unit -> Vjob.t list) ->
  on_switch:(Executor.record -> unit) -> on_repair:(repair -> unit) -> t
(** [queue] yields the live vjobs repairs plan over. [on_switch]
    receives every executed switch's record (repairs included) and
    [on_repair] every repair plan, just before it runs.
    Switch ids come from {!Entropy_journal.Journal.next_switch}, or are
    0 without a journal. *)

val decided :
  t -> Decision.observation -> Optimizer.result ->
  on_settled:(settled -> unit) -> unit
(** Carry a decision through: commit an empty plan's bookkeeping and
    settle [Clean] at once, or {!execute} a non-empty one. *)

val execute :
  t -> demand:Demand.t -> target:Configuration.t -> Plan.t ->
  on_settled:(settled -> unit) -> unit
(** Run a non-empty plan as one switch (the resume path enters here with
    a recovery-derived plan) and call [on_settled] once the switch and
    its repair chain are over. *)

(** Plan execution on the simulated cluster, with parallel pools,
    pipelined suspends/resumes, contention effects, and supervised
    fault handling (injection, timeouts, retries, node loss). *)

open Entropy_core

type record = {
  started_at : float;
  finished_at : float;
  cost : int;
  migrations : int;
  suspends : int;
  resumes : int;
  local_resumes : int;
  runs : int;
  stops : int;
  pools : int;
  failed : int;
      (** actions that terminally failed (VM state unchanged), whatever
          the cause: injected failure, exhausted retries, timeout or
          node loss *)
  retries : int;   (** extra attempts across all actions *)
  timeouts : int;  (** attempts aborted by the supervisor timeout *)
  node_losses : int;  (** actions lost to a crashed node *)
  failed_vms : Vm.id list;  (** VMs whose action terminally failed *)
  lost_nodes : Node.id list;
      (** crashed nodes encountered during the switch *)
  aborted : bool;
      (** execution stopped early ([abort_on_failure]) with part of the
          plan unexecuted *)
}

val duration : record -> float
val pp_record : Format.formatter -> record -> unit

val touched_nodes : Action.t -> Node.id list

val execute :
  ?injector:Entropy_fault.Injector.t ->
  ?policy:Entropy_fault.Supervisor.policy ->
  ?abort_on_failure:bool ->
  ?emit:(Entropy_journal.Record.t -> unit) ->
  ?switch:int ->
  Cluster.t -> Plan.t -> on_done:(record -> unit) -> unit
(** Pool-based execution (the paper's model): schedules the whole switch
    on the cluster's engine and calls [on_done] when the last pool
    completes.

    Every action runs supervised. [injector] decides per attempt whether
    the hypervisor operation fails or is slowed down; [policy] bounds
    each attempt to [timeout_factor x expected duration] and grants
    bounded retries with exponential backoff (default:
    {!Entropy_fault.Supervisor.default_policy}; with nothing injected an
    attempt runs exactly its expected time, so it neither times out nor
    retries). A terminal failure
    leaves the VM in its previous state. With [abort_on_failure]
    (default false), execution stops at the next pool boundary after a
    terminal failure so a repair layer can salvage the rest; otherwise
    remaining pools run as before and the loop replans at its next
    iteration.

    [emit], when given, receives a write-ahead journal record at every
    action state transition (one [Action_started] per attempt, exactly
    one terminal [Action_done] / [Action_failed] per action, a
    [Pool_committed] when a pool drains), tagged with switch id
    [switch] (default 0). Terminal records are appended before the
    completion callback observes the new configuration. *)

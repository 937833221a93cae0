(** End-to-end simulated Entropy runs (the section 5.2 experiment),
    optionally under fault injection with supervised execution and
    immediate plan repair: the control loop ({!Session.loop}) paced by a
    30 s timer. The daemon paces the same loop on debounced events. *)

open Entropy_core

type result = {
  makespan : float;  (** completion time of the last vjob *)
  completions : (Vjob.t * float) list;
  switches : Executor.record list;
  repairs : Session.repair list;
      (** repair plans executed after degraded switches, in order *)
  crashes : (Node.id * float * Vjob.id list) list;
      (** scripted node crashes that fired: node, time, resubmitted
          vjobs *)
  series : Metrics.point list;
  iterations : int;  (** control-loop iterations executed *)
  final_config : Configuration.t;
  killed : bool;
      (** the run was cut short by [kill_at] with vjobs incomplete —
          the simulated controller crash *)
}

val setup :
  ?arrival_spacing:float -> nodes:Node.t array ->
  traces:Vworkload.Trace.t list -> unit ->
  Configuration.t * Vjob.t list * (Vm.id -> Vworkload.Program.t)
(** Flatten traces into an all-waiting configuration, vjobs and per-VM
    programs. [arrival_spacing] staggers submissions (vjob j arrives at
    j * spacing; default: all at t=0 as in the paper). *)

val run_custom :
  ?cp_timeout:float -> ?max_time:float -> ?decision:Decision.t ->
  ?injector:Entropy_fault.Injector.t ->
  ?policy:Entropy_fault.Supervisor.policy ->
  ?journal:Entropy_journal.Journal.t -> ?kill_at:float ->
  config:Configuration.t -> vjobs:Vjob.t list ->
  programs:(Vm.id -> Vworkload.Program.t) -> unit -> result
(** Run the control loop ({!Session.loop}) over an arbitrary initial
    configuration (VMs may already be running or sleeping), paced by a
    30 s timer: each period a {!Session.round} decides over the
    submitted, unterminated vjobs; with nothing submitted yet, the loop
    waits a period. Metrics are sampled every 30 s.

    With [injector], actions run supervised under [policy] (default
    {!Entropy_fault.Supervisor.default_policy}) and its scripted node
    crashes fire until the loop is done. With [journal], every switch
    and every action state transition is journaled. [kill_at] stops the
    engine at that simulated time — the controller crash:
    [result.killed] is set when vjobs were left incomplete. *)

val run_entropy :
  ?cp_timeout:float -> ?max_time:float -> ?decision:Decision.t ->
  ?injector:Entropy_fault.Injector.t ->
  ?policy:Entropy_fault.Supervisor.policy ->
  ?arrival_spacing:float ->
  ?journal:Entropy_journal.Journal.t -> ?kill_at:float ->
  nodes:Node.t array -> traces:Vworkload.Trace.t list -> unit -> result
(** Run the control loop until every vjob has completed and been
    stopped. The loop only sees the vjobs already submitted at each
    iteration. [injector] enables the fault pipeline and [journal] /
    [kill_at] the crash-tolerance pipeline (see {!run_custom}). *)

val resume :
  ?cp_timeout:float -> ?max_time:float -> ?decision:Decision.t ->
  ?injector:Entropy_fault.Injector.t ->
  ?policy:Entropy_fault.Supervisor.policy ->
  ?journal:Entropy_journal.Journal.t -> ?kill_at:float ->
  records:Entropy_journal.Record.t list ->
  vjobs:Vjob.t list -> programs:(Vm.id -> Vworkload.Program.t) -> unit ->
  (Entropy_journal.Recovery.resume * result) option
(** Idempotently resume a run from a crashed controller's journal:
    restart the simulated cluster at the journal's resume point
    ({!Session.recover}), execute the resume plan first (at t=0.5s, an
    empty plan falls through) and then run the periodic loop to
    completion. [None] when the journal holds no switch — nothing to
    resume; start a fresh run instead. Pass the same [journal] to keep
    appending: the resumed switch takes the next free switch id. The
    journaled injector seed is available as [state.seed] for rebuilding
    a deterministic injector; [injector] itself stays the caller's
    choice. *)

val mean_switch_duration : result -> float

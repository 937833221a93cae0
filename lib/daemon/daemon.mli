(** The online control-plane daemon: the event-driven pacing of the
    control loop ({!Vsim.Session.loop}), made to survive overload.

    Where {!Vsim.Runner} re-decides on a fixed period over a closed set
    of vjobs, the daemon re-decides on events — open-arrival
    submissions ({!Vworkload.Arrivals}), vjob completions, load spikes,
    scripted node crashes — through three overload defences:

    - {!Admission}: a hard-bounded FIFO submission queue; a storm can
      fill it to [cap - 1] but never past it, and everything beyond is
      rejected with a journaled reason.
    - {!Triggers}: debounced coalescing, so an event storm collapses
      into one re-decision instead of a decision per event.
    - {!Ladder}: graceful degradation from the full solver portfolio
      down to serve-the-current-configuration, driven by queue
      pressure and decision lag, every step journaled.

    Every admission decision and ladder transition goes through the
    write-ahead journal ({!Entropy_journal.Record.Submission} /
    [Ladder] records) alongside the usual switch records, so
    {!resume} can rebuild the daemon mid-storm: queued-but-unadmitted
    submissions are re-queued, the last switch is reconciled and
    re-executed idempotently ({!Vsim.Session.recover}), missed arrivals
    are re-submitted and the ladder restarts on its journaled rung. *)

open Entropy_core

type config = {
  seed : int;            (** drives instance, arrivals, faults *)
  nodes : int;           (** of 4 cores and 4096 MB each *)
  submissions : int;     (** open arrivals to generate *)
  base_rate : float;     (** calm arrival rate, arrivals/s *)
  burst_rate : float;    (** burst arrival rate, arrivals/s *)
  mean_calm_s : float;
  mean_burst_s : float;
  admission_cap : int;   (** submission-queue bound *)
  admit_batch : int;     (** admissions per decision round *)
  debounce_s : float;    (** trigger coalescing window *)
  deterministic : bool;
      (** replace the wall-clock-bounded portfolio with the FFD
          incumbent at every rung: bit-reproducible runs (the modeled
          decision latencies still differ per rung) *)
  fail_rate : float;     (** per-attempt action failure probability *)
  crashes : int;         (** scripted node crashes over the arrival span *)
  kill_at : float option;
  max_time : float;
}

val default_config : config

type report = {
  submissions : int;   (** arrivals that fired before the horizon *)
  admitted : int;
  rejected : int;
  completed : int;     (** admitted vjobs whose VMs all terminated *)
  all_terminated : bool;
  final_viable : bool;
  max_queue_depth : int;
  admission_cap : int;
  queue_bounded : bool;  (** max depth stayed under the cap *)
  decision_rounds : int;
  deferred_rounds : int;
  max_defer_streak : int;
  defer_round_bound : int;
      (** the bound [max_defer_streak] is held to: one entry round plus
          the debounce-paced rounds one hold can contain *)
  livelock_episodes : int;
      (** switches still degraded after the whole repair chain
          ({!Vsim.Session.Exhausted}) *)
  degradation_bounded : bool;
      (** no livelock episodes and every defer streak within bound *)
  ladder_ups : int;
  ladder_downs : int;
  transitions : Ladder.transition list;
  final_level : Ladder.level;
  triggers_raised : int;
  triggers_coalesced : int;
  switches : int;
  repairs : int;
  action_failures : int;
  crashes : (Node.id * float) list;
  killed : bool;
  resumed : bool;
  makespan : float;
  final_config : Configuration.t;
}

val to_json : report -> Entropy_obs.Json.t
val pp_report : Format.formatter -> report -> unit

val run : ?journal:Entropy_journal.Journal.t -> config -> report
(** One daemon episode from a cold start: generate the instance and the
    arrival schedule from [config.seed], run the event loop until every
    admitted vjob terminates (or [kill_at] / [max_time]). *)

val resume :
  journal:Entropy_journal.Journal.t ->
  records:Entropy_journal.Record.t list -> config -> report
(** Pick a killed daemon up from its journal: [records] is the journal
    as found on disk ({!Entropy_journal.Journal.load}), [journal] the
    reopened journal new records are appended to. [config] must match
    the killed run — the instance and arrival schedule are regenerated
    from its seed, and everything already settled in the journal
    (admissions, rejections, ladder rung, executed actions) is replayed
    rather than redone: a rejected submission stays rejected, an
    in-flight switch is reconciled and completed idempotently, and
    arrivals the dead daemon never saw are re-submitted. *)

(** Rendering of flight-recorder analyses: the human-readable report
    behind [entropyctl explain], its machine-readable JSON form, and a
    Chrome trace-event gantt view (one track per node, barrier and
    critical-path markers) written through {!Entropy_obs.Trace.export}.
    An analysis pairs the journal fold's switch, read as it is, with its
    {!Critical.t}; the Gantt view takes each action's span from
    {!Timeline.first_start} and {!Timeline.finish_time}. *)

type analysis = Entropy_journal.Recovery.switch * Critical.t

val analyze_records :
  ?top_k:int -> Entropy_journal.Record.t list -> analysis list
(** The critical-path analysis of every switch in the journal
    ({!Timeline.of_records}). *)

val healthy : analysis -> bool
(** Buckets and path span match the makespan, and a non-empty switch
    has a non-empty critical path — the invariant [explain] (and CI)
    gate on. *)

val pp : Format.formatter -> analysis -> unit
(** Full per-switch report: header, attribution table, critical path,
    what-if estimates, estimate-vs-actual drift. *)

val pp_summary : Format.formatter -> analysis list -> unit
(** One line per switch plus the episode aggregate (repair switches
    charged to recovery) — the compact form wired into [chaos] and
    [resume] reports. *)

val to_json : ?trace_dropped:int -> analysis list -> Entropy_obs.Json.t

val write_gantt : string -> analysis list -> unit
(** Chrome trace of the analyses ({!Entropy_obs.Trace.export}):
    per-node action tracks, a switch-marker track (begin / pool
    commits / end) and a critical-path track. Timestamps are simulated
    seconds scaled to microseconds, matching lib/obs' simulated-time
    track convention. *)

(** Graceful-degradation ladder.

    When the daemon falls behind — the submission queue fills, queued
    submissions age, decisions lag their triggers — it trades decision
    quality for latency one rung at a time instead of collapsing:

    + {!Full}: the whole solver portfolio under the full deadline.
    + {!Shrunk}: the portfolio under a shrunken deadline.
    + {!Heuristic}: first-fit-decreasing incumbent only, no
      optimisation.
    + {!Defer}: serve the current configuration; no re-decision at all
      until the hold expires.

    Escalation is immediate (any pressure signal at or above its
    threshold steps one rung down the quality ladder); relaxation is
    hysteretic (every signal strictly below its — lower — threshold for
    3 consecutive observations steps one rung back up), so the ladder
    cannot flap on a noisy boundary. [Defer] is self-limiting: after
    {!defer_hold_s} of simulated time the ladder forcibly steps
    back to {!Heuristic} and the daemon re-decides, so degradation is
    always bounded — the daemon can park, but never forever.

    Every transition is reported to the caller (the daemon journals it
    as a {!Entropy_journal.Record.Ladder} record) with the pressure
    reading that caused it. *)

type level = Full | Shrunk | Heuristic | Defer

val index : level -> int
(** Ordinal, 0 = {!Full} — the form journaled in ladder records. *)

val of_index : int -> level option
val to_string : level -> string
val pp : Format.formatter -> level -> unit

type pressure = {
  queue_fill : float;      (** admission-queue fill fraction, [0,1) *)
  oldest_age_s : float;    (** age of the oldest queued submission *)
  decision_lag_s : float;  (** trigger raise -> decision start lag *)
}

val pp_pressure : Format.formatter -> pressure -> unit

(** The ladder escalates at 75% queue fill / 180 s oldest age / 60 s
    decision lag, and relaxes below 25% / 30 s / 10 s for 3 rounds. *)

val defer_hold_s : float
(** Simulated seconds parked at {!Defer} before the forced step back to
    {!Heuristic}: 120 s. *)

type transition = {
  from_level : level;
  to_level : level;
  at_s : float;
  cause : string;  (** the signal (or expiry) that moved the ladder *)
}

val pp_transition : Format.formatter -> transition -> unit

type t

val create : ?level:level -> unit -> t
(** [level] seeds the ladder (resume path: the journaled level). *)

val level : t -> level

val defer_until : t -> float
(** When the current {!Defer} hold expires; meaningless unless
    [level t = Defer]. *)

val observe : t -> now:float -> pressure -> transition option
(** One observation at the top of a decision round: step the ladder at
    most one rung and report the transition, if any. *)

val ups : t -> int
(** Escalations (quality lost) so far. *)

val downs : t -> int
(** Relaxations (quality regained), including forced Defer expiries. *)

(** Readings of an executed cluster-wide context switch. The switch
    itself is a {!Entropy_journal.Recovery.switch}, the one fold of
    switch records, with a slot per plan action; these are the readings
    of it that both {!Critical} and the Gantt view of {!Report} take,
    stated once. Torn tails, kills mid-pool and records that match no
    plan action give partial switches, not errors. *)

module R := Entropy_journal.Recovery

val of_records : Entropy_journal.Record.t list -> R.switch list
(** {!Entropy_journal.Recovery.switches}: every switch in the journal,
    in begin order. *)

val makespan : R.switch -> float
(** [last_event - begun_at]: observed extent of the switch, whether it
    committed, aborted or was cut mid-flight. *)

val executed : R.slot -> bool
(** The journal saw this action at all (an attempt or a terminal). *)

val first_start : R.slot -> float option
(** The first attempt; a terminal with no attempt starts (and ends) at
    its terminal time. *)

val finish_time : R.switch -> R.slot -> float
(** Terminal time, or the switch horizon for in-flight actions. *)

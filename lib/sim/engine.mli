(** Discrete-event simulation core. *)

type t

val create : unit -> t
val now : t -> float

val pending : t -> int
(** Queued events. A cancelled event leaves the queue at once, so every
    queued event is live. *)

val cancelled : t -> int
(** Effective cancels so far: cancels of events that were still queued.
    A cancel of an event that already ran or was already cancelled is
    not counted. *)

val executed : t -> int

type handle

val schedule : t -> at:float -> (unit -> unit) -> handle
(** Raises [Invalid_argument] when [at] is in the past. *)

val schedule_after : t -> delay:float -> (unit -> unit) -> handle

val cancel : t -> handle -> unit
(** Remove a queued event from the engine's heap, O(log pending).
    Idempotent; cancelling an event that already ran, or one from
    another engine, is a no-op. *)

val set_chooser : t -> (int -> int) option -> unit
(** Schedule hook for model checking: when set and [n >= 2] events are
    tied at the next timestamp, [chooser n] picks which runs first
    (0-based, insertion order; out-of-range falls back to 0 = FIFO).
    [None] (the default) keeps the deterministic FIFO tie-break and the
    allocation-free pop. A cancelled event has left the heap, so the
    ties are exactly the live events at the next timestamp. *)

val step : t -> bool
(** Execute the next event; [false] when the queue is empty. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain events with time [<= until]. *)

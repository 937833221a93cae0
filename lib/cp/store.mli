(** The constraint store: variables, backtracking trail, propagation queues.

    Typical use: create a store, create variables, post constraints (which
    register propagators via {!post} / {!post_on}), then call {!propagate}
    to reach a fixpoint; the {!Search} module drives the
    mark/instantiate/undo cycle. *)

type failure
(** The unformatted message of a failure. *)

exception Inconsistent of failure
(** Raised when a propagator or update proves the current state has no
    solution. The store's propagation queues are cleared before the
    exception escapes {!propagate}. The payload is not a string: the
    search catches and drops almost every failure, so its text is built
    only when {!message} reads it. *)

val message : failure -> string
(** [message f] renders a failure's text. It reports the values at the
    moment of failure, also when read after {!undo_to} has restored an
    earlier state. *)

val fail : (unit -> string) -> 'a
(** [fail (fun () -> text)] raises {!Inconsistent}; the thunk runs only
    when {!message} reads the failure, so a search step that fails
    formats nothing. The thunk must close over values read before the
    call (a load, a bound, a domain), never over mutable state it reads
    later: [committed.(b)] read inside the thunk would show the undone
    value. *)

type t
type mark

val create : unit -> t

val new_var : ?name:string -> t -> lo:int -> hi:int -> Var.t
val new_var_of_values : ?name:string -> t -> int list -> Var.t
val constant : t -> int -> Var.t

val vars : t -> Var.t list
(** All variables, in creation order. *)

val propagation_count : t -> int
(** Cumulative number of propagator executions (statistics). *)

val update_count : t -> int
(** Cumulative number of effective domain updates (statistics). *)

val prop_stats : t -> (string * int * int * float) list
(** Per-propagator observability counters aggregated by propagator name:
    [(name, wakes, runs, time_us)], sorted by name. Populated only while
    [Obs.enabled] was set (wake = a watched variable fired a subscribed
    event, including wakes of an already-queued propagator); empty
    otherwise. *)

val mark : t -> mark
val undo_to : t -> mark -> unit
(** [undo_to t m] restores every domain and trailed cell to its value
    at [m]. A propagator whose reported changes a later run consumed
    (see {!first_run}) reads every item on its next run. *)

val release : t -> unit
(** Drop the entries {!undo_to} popped. A popped entry stays in its slot
    until a push overwrites it, and while it does, a minor collection
    promotes it, and the domain it holds, to the major heap. A search
    releases its store when it ends; a caller that undoes a long scope
    many times (a large-neighbourhood search) releases after each undo. *)

val save_cell : t -> int array -> int -> unit
(** [save_cell t arr i] trails the current value of [arr.(i)]: a later
    {!undo_to} past this point writes it back. Lets propagators keep
    incremental state (committed loads, counters) that backtracks in
    lockstep with the domains. *)

val set_dom : t -> Var.t -> Dom.t -> unit
(** Replace a variable's domain (trailing the old one and waking watchers
    whose subscribed events fired when the domain actually shrank).
    Raises {!Inconsistent} when the new domain is empty. *)

val remove : t -> Var.t -> int -> unit
val remove_below : t -> Var.t -> int -> unit
val remove_above : t -> Var.t -> int -> unit
val instantiate : t -> Var.t -> int -> unit

val first_run : t -> Prop.changes -> bool
(** [first_run t c], called on entry to a propagator's run: [true] when
    the run must treat every item as changed (its first run, or the
    first after an undo past it or past a mark taken while changes were
    pending). It then empties [c] and trails its priming, so the next
    run reads [c] alone; on [false] the run reads [c] and clears it. *)

val schedule : t -> Prop.t -> unit
(** Enqueue a propagator unless already queued. *)

val post : t -> Prop.t -> on:Var.t list -> unit
(** Register a propagator waking on {e any} change of [on] and schedule
    its first run. *)

val post_on :
  t -> ?items:Prop.event * Var.t array -> Prop.t ->
  on:(Prop.event * Var.t list) list -> unit
(** Like {!post} but with per-group wake events: the propagator wakes
    only when a watched variable fires the subscribed event (or a
    stronger one — see {!Prop.event}). [items] are watched first, each
    [items.(i)] reporting [i] to the propagator's change list on a
    wake. An idempotent propagator ({!Prop.make}) is not woken by its
    own updates. *)

val propagate : t -> unit
(** Run queued propagators to fixpoint, all [Cheap] ones before each
    [Expensive] one. Raises {!Inconsistent} on failure (queues are
    cleared first, so the store can be reused after undo). *)

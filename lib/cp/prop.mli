(** Propagators: named domain-narrowing closures. *)

type event =
  | On_instantiate  (** wake only when a watched domain becomes bound *)
  | On_bounds       (** wake when lo or hi of a watched domain moves *)
  | On_domain       (** wake on any removal from a watched domain *)
(** Wake events, ordered by strength: an instantiation implies a bounds
    move implies a domain change, and a subscription also wakes on any
    stronger event than the one subscribed to. *)

type priority =
  | Cheap      (** drained first: arithmetic, element, counting, ... *)
  | Expensive  (** drained when no cheap propagator is queued: pack *)

type changes = {
  items : int array;
      (** the items reported since the last run, in report order: the
          first [count] cells *)
  mutable count : int;
  reported : Bytes.t;  (** per item: ['\001'] while it is listed *)
  primed : int array;
      (** one cell, trailed: [0] until the run that read every item;
          while it is [0] the next run treats every item as changed *)
}
(** Change reporting: which of a propagator's items fired since its
    last run. An item is the index {!Store.post_on}'s [~items] gave a
    watched variable; the store lists it at most once per run, whatever
    fired it, so the list never outgrows the item count. *)

type t = {
  id : int;
  name : string;
  priority : priority;
  idempotent : bool;
      (** one run reaches the propagator's own fixpoint: its own updates
          do not wake it *)
  changes : changes;  (** empty for a propagator without items *)
  mutable scheduled : bool;  (** true while queued for propagation *)
  mutable run : unit -> unit;
}

val fired_instantiate : int
val fired_bounds : int
val fired_domain : int
(** Event bits used in watcher masks (see {!Var.watch}). *)

val mask_of_event : event -> int

val new_changes : int -> changes
(** [new_changes n]: an empty list for items [0 .. n-1], unprimed. *)

val make :
  name:string -> ?priority:priority -> ?idempotent:bool ->
  ?changes:changes -> (unit -> unit) -> t
(** [make ~name run] allocates a fresh propagator. [run] narrows domains
    through the owning {!Store.t} and raises {!Store.Inconsistent} on
    failure. The closure may be replaced after creation (used to break
    the store/propagator definition cycle). [changes] (default: no
    items) is the list the store reports items to, which [run] reads;
    [idempotent] (default false) promises that a run leaves nothing for
    an immediate re-run to do. *)

val report : changes -> int -> unit
(** [report c i] lists item [i] unless it is listed already. *)

val clear : changes -> unit
(** Empty the list. *)

val pp : Format.formatter -> t -> unit

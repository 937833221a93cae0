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

type t = {
  id : int;
  name : string;
  priority : priority;
  mutable scheduled : bool;  (** true while queued for propagation *)
  mutable run : unit -> unit;
}

val fired_instantiate : int
val fired_bounds : int
val fired_domain : int
(** Event bits used in watcher masks (see {!Var.watch}). *)

val mask_of_event : event -> int

val make : name:string -> ?priority:priority -> (unit -> unit) -> t
(** [make ~name run] allocates a fresh propagator. [run] narrows domains
    through the owning {!Store.t} and raises {!Store.Inconsistent} on
    failure. The closure may be replaced after creation (used to break
    the store/propagator definition cycle). *)

val pp : Format.formatter -> t -> unit

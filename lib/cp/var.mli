(** Finite-domain integer variables.

    All domain {e mutation} must go through {!Store} (for trailing and
    propagator scheduling); this interface exposes only reads, plus
    {!watch} used by constraint implementations. *)

type watcher = {
  mask : int;  (** subscribed event bits; see {!Prop.mask_of_event} *)
  item : int;  (** the item reported to [prop] on a wake, or [-1] *)
  prop : Prop.t;
}

type t = {
  id : int;
  name : string;  (** [""] for anonymous variables; read via {!name} *)
  mutable dom : Dom.t;
  mutable watchers : watcher list;
}

val id : t -> int

(** Display name; anonymous variables render as ["v<id>"]. *)
val name : t -> string
val dom : t -> Dom.t
val lo : t -> int
val hi : t -> int
val size : t -> int
val is_bound : t -> bool
val mem : int -> t -> bool

val value_exn : t -> int
(** Value of a bound variable. Raises [Invalid_argument] otherwise. *)

val watch : t -> ?event:Prop.event -> ?item:int -> Prop.t -> unit
(** Subscribe a propagator to this variable's changes, waking it on
    [event] (default {!Prop.On_domain}: any change) or stronger, and
    reporting [item] to its change list on each wake (default: none).
    Subscribing the same propagator twice with the same item merges the
    event masks. *)

val read_hook : (t -> unit) option ref
(** Instrumentation point used by the analysis sanitizer: when set, every
    read accessor ({!dom}, {!lo}, {!hi}, {!size}, {!is_bound}, {!mem},
    {!value_exn}) calls the hook with the variable being read. Leave
    [None] in production (the default); the overhead is then a single
    predictable branch per read. *)

val pp : Format.formatter -> t -> unit

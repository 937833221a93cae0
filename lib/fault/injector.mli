(** Deterministic, seeded fault injection.

    An injector composes failure models and is consulted once per action
    {e attempt} (a supervised retry is a fresh attempt): the decision
    says whether the attempt fails and by how much it is slowed down.
    Scripted node crashes ride along in the model list and are read back
    with {!node_crashes}; enacting them (removing capacity, resetting
    vjobs) is the environment's job.

    All randomness comes from one [Random.State] seeded at {!create}:
    the same seed over the same attempt sequence decides identically. *)

open Entropy_core

type kind = Run | Stop | Migrate | Suspend | Resume | Suspend_ram | Resume_ram

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

type model =
  | Fail_rate of { kind : kind option; rate : float }
      (** each matching attempt fails with probability [rate];
          [kind = None] matches every action *)
  | Fail_nth of { kind : kind; nth : int }
      (** the [nth] attempt of that kind (1-based, counted across the
          injector's lifetime) fails *)
  | Slowdown of { kind : kind option; factor : float }
      (** matching attempts take [factor] times their nominal duration *)
  | Crash_node of { node : Node.id; at_s : float }
      (** node [node] permanently crashes at simulated time [at_s] *)
  | Predicate of (Action.t -> bool)
      (** escape hatch: fail exactly the attempts the predicate selects *)

type decision = { fail : bool; slowdown : float }

type t

val create : ?seed:int -> model list -> t
(** Raises [Invalid_argument] on malformed models (rate outside [0,1],
    non-positive [nth], slowdown factor below 1, negative crash time). *)

val none : t
(** Injects nothing; {!decide} short-circuits to no failure at nominal
    speed. *)

val of_predicate : (Action.t -> bool) -> t

val is_none : t -> bool

val decide : t -> Action.t -> decision
(** Decide one attempt's fate: failures from any matching model compose
    with [or], slowdown factors multiply. *)

val node_crashes : t -> (Node.id * float) list
(** The scripted [(node, at_s)] crashes, in model order. *)

val crash_script :
  ?seed:int -> node_count:int -> horizon_s:float -> count:int -> unit ->
  model list
(** A seeded soak-run crash schedule: [count] distinct nodes crashing
    at times drawn uniformly over [(0, horizon_s]], returned as
    [Crash_node] models in time order, ready to splice into {!create}'s
    model list. Deterministic in [seed] and independent of the
    attempt-fate stream. Raises [Invalid_argument] when [count] is
    negative or exceeds [node_count], or the horizon is not positive. *)

val decided : t -> int
(** Total attempts decided so far (for tests and reports). *)

val seed : t -> int
(** The seed given at {!create} — journaled with a switch so a resumed
    run can rebuild an identically-behaving injector. *)

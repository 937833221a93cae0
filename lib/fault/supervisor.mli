(** Supervised-execution policy: per-attempt timeouts scaled from the
    Table 1 expected duration, bounded retries with exponential backoff
    in simulated time, and outcome classification.

    The supervisor is pure policy; the executor owns the clock. After
    each attempt it calls {!next}, which either schedules a retry after
    a backoff delay or classifies the action's terminal {!outcome}. *)

open Entropy_core

type policy = {
  timeout_factor : float;
      (** an attempt times out after [factor x expected duration];
          [infinity] disables timeouts *)
  max_retries : int;    (** retries after the first attempt *)
}

val default_policy : policy
(** factor 3, 2 retries. *)

val make_policy : ?timeout_factor:float -> ?max_retries:int -> unit -> policy
(** Defaults from {!default_policy}; raises [Invalid_argument] on a
    non-positive factor or negative retries. *)

val timeout_s : policy -> expected_s:float -> float
val backoff_s : attempt:int -> float
(** Delay before the retry that follows the [attempt]-th failed attempt:
    [5 s * 2^(attempt-1)], capped at 60 s. *)

type attempt = Succeeded | Fault_injected | Attempt_timed_out

type outcome =
  | Completed of { retries : int }
  | Failed of { attempts : int }     (** injected failure, retries spent *)
  | Timed_out of { attempts : int }  (** last attempt exceeded its timeout *)
  | Node_lost of { node : Node.id }
      (** a node involved in the action crashed; never retried *)

val next : policy -> attempts:int -> attempt -> [ `Done of outcome | `Retry of float ]
(** Classify the [attempts]-th attempt (1-based): either the action is
    done with a terminal outcome, or it should be retried after the
    returned backoff delay. *)

val succeeded : outcome -> bool
val pp_outcome : Format.formatter -> outcome -> unit

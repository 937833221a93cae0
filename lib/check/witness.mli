(** Witnesses: a replayable schedule plus an optional crash point.

    A step names an action by its global index in the plan (pools
    flattened in order): [Start i] begins the action (it becomes
    in-flight, claiming destination resources), [Finish i] completes it
    (its effect is applied). A crash point describes where the journal
    was cut: [kept] buffered [Action_started] frames beyond the last
    commit-point flush made it to disk, and [torn] optionally gives how
    many bytes of the next frame were durably written before the tear.

    Witnesses round-trip through a one-line JSON seed file, so a
    minimized counterexample can be re-checked with
    [entropyctl check --replay]. *)

type step = Start of int | Finish of int

type crash = { kept : int; torn : int option }
type t = { steps : step list; crash : crash option }

val step_equal : step -> step -> bool
val step_index : step -> int

val pp_step : Format.formatter -> step -> unit
val pp : Format.formatter -> t -> unit

exception Malformed of string

val to_json : t -> Entropy_obs.Json.t

val of_json : Entropy_obs.Json.t -> t
(** Raises {!Malformed}. *)

val to_file : string -> t -> unit

val of_file : string -> t
(** Raises {!Malformed} on bad content, [Sys_error] on a missing file. *)

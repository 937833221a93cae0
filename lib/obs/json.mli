(** Minimal JSON values: printer + parser for the observability exports.

    Every file the obs layer writes (traces, metrics, time series) is
    built as a [t] and printed here, and can be re-read with [parse] —
    the test suite uses that to check the exports round-trip. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string

val parse : string -> t
(** Raises [Parse_error] on malformed input. *)

val member : string -> t -> t option
(** Field of an object, [None] on a missing field or a non-object. *)

val to_list : t -> t list option

val number : t -> float option
(** [Int] and [Float] both read as numbers. *)

val string_value : t -> string option

(** Write-ahead journal records for cluster-wide context switches.

    A controller about to execute a switch appends {!Switch_begin}
    (everything needed to re-derive the decision: source and target
    configurations, the plan, the smoothed demand, the injector seed),
    the executor appends a record at every action state transition, and
    {!Switch_end} closes the switch. After a crash, {!Recovery} replays
    the records to reconstruct the in-flight state.

    The durable form is a length-prefixed binary frame ({!write_frame} /
    {!read_frame}): an 11-byte header (magic, version, payload length,
    FNV-1a checksum) followed by a compact binary payload. A torn or
    corrupted frame is detected by the header checks and checksum and
    ends the durable prefix in {!Journal.load}. {!to_json} is a one-way
    debug export; nothing decodes it.

    A journal is self-contained, a frame is not: frames are written and
    read through a stream {!codec}, and a {!Switch_begin} writes only
    what the earlier frames of its stream did not already carry. *)

open Entropy_core

type t =
  | Switch_begin of {
      switch : int;  (** switch id, monotone across one journal *)
      at_s : float;  (** simulated (or driver) time of the append *)
      source : Configuration.t;
      target : Configuration.t;
      plan : Plan.t;
      demand : Demand.t;  (** the demand the decision was made against *)
      seed : int option;  (** fault-injector seed, when one is loaded *)
    }
  | Action_started of {
      switch : int;
      pool : int;
      attempt : int;  (** 1-based supervised attempt *)
      at_s : float;
      action : Action.t;
    }
  | Action_done of { switch : int; pool : int; at_s : float; action : Action.t }
  | Action_failed of {
      switch : int;
      pool : int;
      at_s : float;
      action : Action.t;
    }  (** terminal failure: the VM keeps its previous state *)
  | Pool_committed of { switch : int; pool : int; at_s : float }
  | Switch_end of { switch : int; at_s : float; aborted : bool }
  | Submission of {
      at_s : float;
      vjob : int;  (** the submitted vjob's id *)
      vms : int;   (** its VM count, for audit without the instance *)
      disposition : disposition;
    }
      (** Daemon admission-control decision for one open-arrival
          submission; the last disposition journaled for a vjob wins on
          resume. Lives outside any switch. *)
  | Ladder of { at_s : float; from_level : int; to_level : int; reason : string }
      (** Daemon degradation-ladder transition (levels as
          {!Entropy_daemon.Ladder} ordinals), with the pressure reading
          that caused it. Lives outside any switch. *)

and disposition = Queued | Admitted | Rejected of string

val switch : t -> int
(** The record's switch id; [-1] for the daemon-level records
    ({!Submission}, {!Ladder}) that live outside any switch. *)

val at_s : t -> float

val to_json : t -> Entropy_obs.Json.t
(** The record as a JSON object, for `entropyctl journal dump`. *)

val checksum : string -> int
(** FNV-1a 32-bit over the serialized record payload. *)

(** {2 Binary frame form (the durable format)} *)

val magic : string
(** Frame magic, ["EJ"]. A file whose first byte is ['{'] is a
    pre-binary JSON-lines journal, which {!Journal} refuses to read. *)

val version : int
(** Format version carried in every frame header (3); readers reject
    frames with a version they do not know. *)

val header_size : int
(** Bytes of frame header preceding the payload (11). *)

type codec
(** The state one stream of frames carries from frame to frame: the
    source and the demand of the last {!Switch_begin} it held. A
    {!Switch_begin} refers to the source's node and VM tables with one
    byte each when its own are equal by field (name, capacities,
    memory); with the VM table it then writes its source states as the
    VMs whose state differs from the codec's source. It writes its
    demand as the VMs whose demand differs from the codec's when the VM
    counts match, and its target as the VM states that differ from its
    source when the target's tables equal the source's. Anything else
    it writes in full. A switch record so costs what the switch
    changed. On decode, the source, the target and later switches
    share one node array and one VM array, and each source, target and
    demand shares every chunk ({!Entropy_core.Chunked}) no diff wrote
    with the one it was decoded from.

    One type serves both directions: a reader that has decoded a valid
    prefix holds exactly the codec its writer holds for the next
    append. A codec moves only past a whole frame, and holds the
    immutable source and demand of the record without copying them. *)

val codec : unit -> codec
(** The codec of an empty stream. *)

val write_frame : codec -> Buffer.t -> t -> unit
(** Append one binary frame (header + payload) to the buffer, encoded
    against the stream's codec, and advance the codec past it. *)

val to_frame : codec -> t -> string
(** [write_frame] into a fresh string. *)

type frame_result =
  | Frame of t * int
      (** Decoded record and the offset just past its frame. *)
  | Skipped of string * int
      (** An intact frame (magic, version and checksum all verified)
          whose payload leads with a record tag this reader does not
          know — written by a newer version. Carries a diagnostic and
          the offset just past the frame: readers log and keep going
          rather than truncating the records that follow. *)
  | Torn of string
      (** The bytes at this offset are not a valid frame (short header
          or payload, bad magic or version, checksum mismatch, payload
          decode failure: a reference to a table or demand with none
          earlier in the stream, a diff naming a VM out of range); this
          ends the journal's durable prefix. *)

val read_frame : codec -> string -> pos:int -> frame_result option
(** Decode the frame starting at [pos] against the stream's codec;
    [None] at a clean end of input ([pos >= length]). The codec
    advances only past a decoded {!Frame}. Never raises. *)

val commit_point : t -> bool
(** Whether a group-committing backend must flush immediately after
    this record: true for every kind except [Action_started], whose
    loss on crash only re-runs an idempotent action on resume. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

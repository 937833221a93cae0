(** Cluster-description language for the entropyctl tool. See the
    implementation header for the format. *)

open Entropy_core

exception Parse_error of { line : int; message : string }

type t = {
  config : Configuration.t;
  demand : Demand.t;
  vjobs : Vjob.t list;
  rules : Placement_rules.t list;
  programs : Vworkload.Program.t array;
      (** per-VM phase programs ([[]] when not declared); used by
          [entropyctl simulate] *)
  node_names : string array;
  vm_names : string array;
}

val of_string : string -> t
(** Raises {!Parse_error} with a 1-based line number. VMs not assigned
    to a vjob get an implicit singleton vjob. *)

val load : string -> t

val node_name : t -> Node.id -> string

val pp_plan : t -> Format.formatter -> Plan.t -> unit

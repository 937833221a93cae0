(** VM context-switch actions: the edges of a reconfiguration graph. *)

type t =
  | Run of { vm : Vm.id; dst : Node.id }
  | Stop of { vm : Vm.id; host : Node.id }
  | Migrate of { vm : Vm.id; src : Node.id; dst : Node.id }
  | Suspend of { vm : Vm.id; host : Node.id }
  | Resume of { vm : Vm.id; src : Node.id; dst : Node.id }
      (** local resume when [src = dst], remote otherwise *)
  | Suspend_ram of { vm : Vm.id; host : Node.id }
      (** keep the image in the host's RAM (paper section 7) *)
  | Resume_ram of { vm : Vm.id; host : Node.id }
      (** wake a RAM-suspended VM; only possible on its host *)

val vm : t -> Vm.id
val destination : t -> Node.id option
(** Node on which the action claims resources, if any. *)

val source : t -> Node.id option
(** Node on which the action frees resources (or reads a stored image). *)

val is_local : t -> bool
(** Migrations and cross-node resumes are remote; everything else local. *)

val transition : t -> Lifecycle.transition

val claim : Configuration.t -> Demand.t -> t -> (Node.id * int * int) option
(** Resources the action claims on its destination as
    [(node, cpu, mem)]; [None] for freeing actions. A RAM resume claims
    CPU only. *)

val feasible : Configuration.t -> Demand.t -> t -> bool
(** Whether the action can start now: its destination (if any) has enough
    free CPU and memory under the given configuration and demands. *)

exception Invalid of string

val apply : Configuration.t -> t -> Configuration.t
(** Execute the action. Raises {!Invalid} when the VM is not in the state
    the action expects (e.g. resuming a VM that is not sleeping). One
    O(vms) copy of the state vector, like {!Configuration.set_state}. *)

val apply_all : Configuration.t -> t list -> Configuration.t
(** [List.fold_left apply] for one state-vector copy: the actions apply
    in order, each checked against the states the earlier ones left.
    Raises the {!Invalid} of the first action {!apply} would reject,
    with the same text. Used for a planner pool and every plan replay. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Configurations: the mapping of every VM to a state and (when running
    or sleeping) a node. A configuration is {e viable} when every running
    VM has sufficient CPU and memory on its host (paper, section 3.2).

    Identifiers are dense: [Vm.id] / [Node.id] index the arrays.

    The state vector is a {!Chunked} vector: a write copies its spine
    and the 64-VM chunk it lands in, never the whole vector, and the
    configuration written from keeps every chunk and stays unchanged. *)

type vm_state =
  | Waiting
  | Running of Node.id
  | Sleeping of Node.id  (** node whose disk holds the suspended image *)
  | Sleeping_ram of Node.id
      (** suspended in the host's RAM (paper section 7 future work):
          memory stays allocated, CPU is freed, resume is nearly
          instantaneous but only possible on that host *)
  | Terminated

val pp_vm_state : Format.formatter -> vm_state -> unit
val equal_vm_state : vm_state -> vm_state -> bool

type t

val make : nodes:Node.t array -> vms:Vm.t array -> t
(** All VMs start Waiting. Raises [Invalid_argument] when ids are not
    dense (id = array index). *)

val with_states : t -> vm_state array -> t
(** Same cluster, explicit state vector, copied into chunks: O(vms).
    Raises [Invalid_argument] when the length is not the VM count. *)

val with_nodes : t -> Node.t array -> t
(** Same VMs and states over a replaced node set — e.g. a crashed node
    swapped for its zero-capacity stand-in ({!Node.crashed}). Raises
    [Invalid_argument] when the count changes or ids are not dense. *)

val node_count : t -> int
val vm_count : t -> int
val nodes : t -> Node.t array
val vms : t -> Vm.t array
val node : t -> Node.id -> Node.t
val vm : t -> Vm.id -> Vm.t

val state : t -> Vm.id -> vm_state
val set_state : t -> Vm.id -> vm_state -> t
(** Functional update: copies the spine (one word per 64 VMs) and the
    written chunk (64 words), and shares every other chunk with [t],
    which is unchanged. *)

type editor
(** Write access to a new version of a configuration's state vector,
    valid only inside the {!edit} callback that received it. *)

val edit : t -> (editor -> unit) -> t
(** [edit t f] lets [f] make any number of writes; the spine is copied
    at the first write and each chunk at its first write, so the result
    costs the spine plus the chunks written (an edit that writes nothing
    new returns [t] itself). [t] is unchanged, also when [f] raises; the
    result holds the writes. *)

val read : editor -> Vm.id -> vm_state
(** Current state, the edit's earlier writes included. Raises
    [Invalid_argument] for an unknown VM, like {!state}. *)

val write : editor -> Vm.id -> vm_state -> unit
(** Raises [Invalid_argument] for an unknown VM, like {!set_state}. *)

val host : t -> Vm.id -> Node.id option
(** Hosting node of a running VM. *)

val lifecycle : t -> Vm.id -> Lifecycle.state
val lifecycle_of_state : vm_state -> Lifecycle.state

val running_on : t -> Node.id -> Vm.id list
val ram_sleeping_on : t -> Node.id -> Vm.id list
val running_vms : t -> Vm.id list

val cpu_load : t -> Demand.t -> Node.id -> int
val mem_load : t -> Node.id -> int
val free_cpu : t -> Demand.t -> Node.id -> int
val free_mem : t -> Node.id -> int

val loads : t -> Demand.t -> int array * int array
(** [(cpu, mem)] load of every node, in one O(vms + nodes) pass. *)

type free = { cpu : int array; mem : int array }
(** Free resources per node, indexed by [Node.id]. *)

val free_view : t -> Demand.t -> free
(** Capacity minus {!loads} for every node, in one O(vms + nodes) pass:
    the free-resources view that placement and pool building take once
    and then update in O(1) per claim, instead of calling {!free_cpu} /
    {!free_mem} / {!fits} (each O(vms)) per claim. The arrays are
    fresh; callers mutate them. *)

val shift_free : free -> Demand.t -> t -> t -> unit
(** [shift_free view demand a b] turns [a]'s free view into [b]'s, in
    place: each VM whose state differs ({!iter_changed}) gives back
    what it held in [a] and takes what it holds in [b] (CPU and memory
    while running, memory while suspended to RAM). Costs the chunks [b]
    does not share with [a]. *)

val is_viable : t -> Demand.t -> bool
val overloaded_nodes : t -> Demand.t -> Node.id list

val fits : t -> Demand.t -> cpu:int -> mem:int -> Node.id -> bool
(** Whether one more VM with those demands fits on the node. *)

val vjob_state : t -> Vjob.t -> Lifecycle.state option
(** The common life-cycle state of a vjob's VMs, or [None] when the VMs
    disagree (transient during a cluster-wide context switch). *)

val vjob_terminated : t -> Vjob.t -> bool
(** Every VM of the vjob is [Terminated]: the vjob has left the cluster. *)

val equal : t -> t -> bool
(** Same states and node count; chunks shared between the two are not
    compared. *)

val iter_changed : (Vm.id -> vm_state -> vm_state -> unit) -> t -> t -> unit
(** [iter_changed f a b] calls [f vm (state a vm) (state b vm)] on
    every VM whose state differs between [a] and [b], in ascending id,
    skipping the chunks [b] shares with [a] (a target written from a
    source by {!edit} is compared at the cost of the chunks written).
    Raises [Invalid_argument] when the VM counts differ. *)

val pp : Format.formatter -> t -> unit

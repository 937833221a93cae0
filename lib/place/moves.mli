(** Elementary move generators: migrate-one and swap-pair proposals with
    tabu tenure and a bounded candidate draw per proposal. *)

type t =
  | Migrate of { idx : int; dst : int }
      (** reassign placed VM [idx] to node [dst] *)
  | Swap of { a : int; b : int }  (** exchange the hosts of two VMs *)

type gen

val make_gen : seed:int -> State.t -> gen
(** A just-moved VM is not proposed again for 8 steps; a proposal round
    gives up after 16 random draws, 30 % of which try a swap.
    Deterministic in [seed]. *)

val propose : gen -> State.t -> t option
(** A feasible, non-tabu move, or [None] when the bounded draws found
    none (not a proof that the neighbourhood is empty). *)

val delta : State.t -> t -> int
(** Objective change if the move were applied (O(1) table lookups). *)

val feasible : State.t -> t -> bool

val apply : gen -> State.t -> t -> unit
(** Apply the move and mark the touched VMs tabu. *)

(** Reconfiguration plans: sequential pools of parallel actions. *)

type t

val make : Action.t list list -> t
(** Build a plan from pools (empty pools are dropped). *)

val empty : t
val is_empty : t -> bool

val pools : t -> Action.t list list
val pool_count : t -> int
val actions : t -> Action.t list
val action_count : t -> int

val cost : Configuration.t -> t -> int
(** Plan cost under the Table 1 model (see {!Cost.plan}). *)

val count_kind : t -> (Action.t -> bool) -> int
(** The plan's actions that satisfy the predicate. *)

val migration_count : t -> int
val suspend_count : t -> int
val resume_count : t -> int
val run_count : t -> int
val stop_count : t -> int

val local_resume_count : t -> int
(** Resumes performed on the node that stored the image. *)

val pp : Format.formatter -> t -> unit

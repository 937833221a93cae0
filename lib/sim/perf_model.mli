(** Durations of VM context-switch operations, calibrated to the
    measurements of the paper's section 2.3 (Figure 3). *)

open Entropy_core

type transfer = Local | Scp | Rsync

val decel_local : float
val decel_remote : float

(** Contention-free durations, from {!Entropy_core.Schedule.durations}
    (scp pushes at its [transfer_mb_s]; rsync at 24 MB/s). *)

val boot : float
val clean_shutdown : float
val migrate : memory_mb:int -> float
val suspend : memory_mb:int -> transfer:transfer -> float
val resume : memory_mb:int -> transfer:transfer -> float

val deceleration : local:bool -> busy_coresident:bool -> float
(** 1.0 without co-resident busy VMs, else 1.3 (local) / 1.5 (remote). *)

val action_duration :
  busy:(Node.id -> bool) -> Action.t -> Configuration.t -> float
(** Wall-clock duration of a reconfiguration action, contention
    included: {!Entropy_core.Schedule.action_duration} times the
    deceleration. [busy n] tells whether node [n] hosts busy VMs other
    than the manipulated one. *)

val figure3_rows : unit -> (int * (string * float) list) list
(** The Figure 3 table: durations of every operation for 512/1024/2048
    MB VMs. *)

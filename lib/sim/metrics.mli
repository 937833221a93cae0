(** Resource-utilization time series (Figure 13 data). *)

type point = {
  time : float;
  mem_used_mb : int;
  cpu_demand_pct : float;  (** may exceed 100 under overload *)
  cpu_used_pct : float;
  running_vms : int;
  active_nodes : int;  (** nodes hosting at least one running VM *)
}

type t

val snapshot : Cluster.t -> point

val start : Cluster.t -> t
(** Begin sampling on the cluster's engine: one point now, then one
    every 30 s of simulated time. *)

val stop : t -> unit
(** Stop sampling and cancel the pending sample event. Idempotent. *)

val points : t -> point list
(** In chronological order. *)

val points_to_json : point list -> Entropy_obs.Json.t

val to_json : t -> Entropy_obs.Json.t
(** [{"period": ..., "points": [...]}] — the Figure 13 series as JSON. *)

val peak_cpu_demand : t -> float

val node_seconds : t -> float
(** Integral of active nodes over time — the energy proxy power-aware
    placement minimises. *)

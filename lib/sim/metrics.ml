(* Resource-utilization time series (Figure 13): sampled memory and CPU
   of the running VMs, relative to the cluster capacity. The CPU demand
   can exceed 100% (overload) — exactly the situation the cluster-wide
   context switch resolves. *)

open Entropy_core

type point = {
  time : float;
  mem_used_mb : int;       (* memory of the running VMs *)
  cpu_demand_pct : float;  (* demanded CPU / capacity, may exceed 100 *)
  cpu_used_pct : float;    (* allocated CPU / capacity, capped per node *)
  running_vms : int;
  active_nodes : int;      (* nodes hosting at least one running VM *)
}

type t = {
  engine : Engine.t;
  mutable points : point list; (* newest first *)
  mutable stopped : bool;
  mutable pending : Engine.handle option; (* next scheduled sample *)
}

let capacity_cpu config =
  Array.fold_left
    (fun acc n -> acc + Node.cpu_capacity n)
    0 (Configuration.nodes config)

let snapshot cluster =
  let config = Cluster.config cluster in
  let demand = Cluster.demand cluster in
  let cpu_load, mem_load = Configuration.loads config demand in
  let cap = float_of_int (capacity_cpu config) in
  let demand_total = Array.fold_left ( + ) 0 cpu_load in
  let used_total =
    let acc = ref 0 in
    Array.iteri
      (fun i load ->
        acc :=
          !acc + min load (Node.cpu_capacity (Configuration.node config i)))
      cpu_load;
    !acc
  in
  let active_nodes =
    let count = ref 0 in
    Array.iteri
      (fun i _ -> if Configuration.running_on config i <> [] then incr count)
      (Configuration.nodes config);
    !count
  in
  {
    time = Cluster.now cluster;
    mem_used_mb = Array.fold_left ( + ) 0 mem_load;
    cpu_demand_pct = 100. *. float_of_int demand_total /. cap;
    cpu_used_pct = 100. *. float_of_int used_total /. cap;
    running_vms = List.length (Configuration.running_vms config);
    active_nodes;
  }

let period = 30.

let start cluster =
  let engine = Cluster.engine cluster in
  let t = { engine; points = []; stopped = false; pending = None } in
  let rec sample () =
    t.pending <- None;
    if not t.stopped then begin
      t.points <- snapshot cluster :: t.points;
      t.pending <- Some (Engine.schedule_after engine ~delay:period sample)
    end
  in
  sample ();
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Option.iter (Engine.cancel t.engine) t.pending;
    t.pending <- None
  end

let points t = List.rev t.points

let peak_cpu_demand t =
  List.fold_left (fun acc p -> Float.max acc p.cpu_demand_pct) 0. (points t)

(* Energy proxy: integral of active nodes over time (node-seconds), the
   quantity power-aware placement (Verma et al., cited in the paper's
   introduction) minimises. *)
let point_to_json p =
  let open Entropy_obs.Json in
  Obj
    [
      ("time", Float p.time);
      ("mem_used_mb", Int p.mem_used_mb);
      ("cpu_demand_pct", Float p.cpu_demand_pct);
      ("cpu_used_pct", Float p.cpu_used_pct);
      ("running_vms", Int p.running_vms);
      ("active_nodes", Int p.active_nodes);
    ]

let points_to_json points = Entropy_obs.Json.List (List.map point_to_json points)

let to_json t =
  let open Entropy_obs.Json in
  Obj [ ("period", Float period); ("points", points_to_json (points t)) ]

let node_seconds t =
  match points t with
  | [] | [ _ ] -> 0.
  | p :: rest ->
    let acc, last =
      List.fold_left
        (fun (acc, prev) q ->
          ( acc
            +. (float_of_int prev.active_nodes *. (q.time -. prev.time)),
            q ))
        (0., p) rest
    in
    ignore last;
    acc

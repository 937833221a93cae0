(* Plan repair after a degraded switch.

   Salvage first: freeze every failed VM at its current state
   (Rgraph.salvage_target) and rebuild the plan from the mid-switch
   configuration — re-running the dependency closure over the surviving
   actions. When the salvaged plan is empty, the planner is stuck, or a
   node crashed (the old target still places VMs on it), fall back to an
   immediate FFD-based replan: re-run RJSP over the live queue and plan
   towards its packing. Vjobs that sat on a crashed node have been reset
   to Waiting by the environment, so the replan naturally resubmits
   them. *)

open Entropy_core
module Obs = Entropy_obs.Obs
module Metrics = Entropy_obs.Metrics

let m_salvages = lazy (Metrics.counter "fault.salvages")
let m_replans = lazy (Metrics.counter "fault.replans")

type outcome = {
  source : [ `Salvaged | `Replanned ];
  target : Configuration.t;
  plan : Plan.t;
}

let pp_source ppf = function
  | `Salvaged -> Fmt.string ppf "salvaged"
  | `Replanned -> Fmt.string ppf "replanned"

let salvage ?vjobs ~current ~target ~demand ~failed_vms () =
  let target = Rgraph.normalize_sleeping ~current target in
  let frozen vm = List.mem vm failed_vms in
  let target = Rgraph.salvage_target ~current ~target ~frozen in
  match Planner.build ?vjobs ~current ~target ~demand () with
  | plan when Plan.is_empty plan -> None
  | plan ->
    if !Obs.enabled then Metrics.incr (Lazy.force m_salvages);
    Log.debug (fun m ->
        m "salvaged %d actions around %d frozen VMs"
          (Plan.action_count plan) (List.length failed_vms));
    Some { source = `Salvaged; target; plan }
  | exception ((Planner.Stuck _ | Rgraph.Unreachable _) as e) ->
    Log.debug (fun m -> m "salvage impossible: %s" (Printexc.to_string e));
    None

let ffd_replan ?heuristic ?rules ?vjobs ~config ~demand ~queue () =
  let outcome = Rjsp.solve ?heuristic ?rules ~config ~demand ~queue () in
  let target = Rgraph.normalize_sleeping ~current:config outcome.Rjsp.ffd_config in
  match Planner.build ?vjobs ~current:config ~target ~demand () with
  | plan when Plan.is_empty plan -> None
  | plan ->
    if !Obs.enabled then Metrics.incr (Lazy.force m_replans);
    Log.debug (fun m ->
        m "FFD replan: %d running, %d left ready, %d actions"
          (List.length outcome.Rjsp.running)
          (List.length outcome.Rjsp.ready)
          (Plan.action_count plan));
    Some { source = `Replanned; target; plan }
  | exception (Planner.Stuck _ | Rgraph.Unreachable _) -> None

let repair ?heuristic ?rules ?vjobs ~current ~target ~demand ~queue
    ~failed_vms ~lost_nodes () =
  Obs.span ~cat:"fault" ~name:"fault.repair"
    ~args:
      [
        ("failed_vms", Entropy_obs.Trace.I (List.length failed_vms));
        ("lost_nodes", Entropy_obs.Trace.I (List.length lost_nodes));
      ]
    (fun () ->
      if lost_nodes <> [] then
        (* the old target still places VMs on the dead node: only a full
           replan over the shrunk cluster makes sense *)
        ffd_replan ?heuristic ?rules ?vjobs ~config:current ~demand ~queue ()
      else
        match salvage ?vjobs ~current ~target ~demand ~failed_vms () with
        | Some _ as o -> o
        | None ->
          ffd_replan ?heuristic ?rules ?vjobs ~config:current ~demand ~queue ())

type residue = { failed_vms : Vm.id list; lost_nodes : Node.id list }

let residue_ok r = r.failed_vms = [] && r.lost_nodes = []

let pp_residue ppf r =
  Fmt.pf ppf "failed VMs %a, lost nodes %a"
    Fmt.(Dump.list int)
    r.failed_vms
    Fmt.(Dump.list int)
    r.lost_nodes

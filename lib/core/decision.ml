(* Decision modules (section 3.2). A decision module turns an
   observation of the cluster — current configuration, monitored
   demands, FCFS queue, completion notices — into a target configuration
   (with its reconfiguration plan, via the optimiser).

   The sample module reproduces the paper's dynamic consolidation
   policy: stop the finished vjobs, solve the RJSP with FFD trial
   packing, then let the CP optimiser pick placements that minimise the
   cluster-wide context switch cost. *)

type observation = {
  config : Configuration.t;
  demand : Demand.t;
  queue : Vjob.t list;  (* non-terminated vjobs, any order *)
  finished : Vjob.id list;  (* vjobs flagged complete by their owner *)
}

type t = {
  name : string;
  decide : observation -> Optimizer.result;
}

let is_finished obs vjob = List.mem (Vjob.id vjob) obs.finished

(* Mark the running VMs of the finished vjobs as terminated. *)
let apply_stops config queue finished =
  Configuration.edit config (fun e ->
      List.iter
        (fun vjob ->
          if List.mem (Vjob.id vjob) finished then
            List.iter
              (fun vm_id ->
                match Configuration.read e vm_id with
                | Configuration.Running _ | Configuration.Sleeping _
                | Configuration.Sleeping_ram _ | Configuration.Waiting ->
                  Configuration.write e vm_id Configuration.Terminated
                | Configuration.Terminated -> ())
              (Vjob.vms vjob))
        queue)

(* Suspend-to-RAM preference (paper section 7): a vjob that must leave
   the cluster keeps its images in its hosts' RAM when the target
   configuration leaves enough memory there — making the later resume
   nearly free. Applied VM by VM, whole vjobs at a time (mixing RAM and
   disk images inside one vjob would complicate its re-admission). *)
let prefer_ram_suspends ~current target =
  let vm_count = Configuration.vm_count target in
  let fits_in_ram cfg vm_id host =
    Configuration.free_mem cfg host
    >= Vm.memory_mb (Configuration.vm cfg vm_id)
  in
  let rec convert cfg vm_id =
    if vm_id >= vm_count then cfg
    else
      let cfg =
        match
          (Configuration.state current vm_id, Configuration.state cfg vm_id)
        with
        | Configuration.Running host, Configuration.Sleeping _
          when fits_in_ram cfg vm_id host ->
          Configuration.set_state cfg vm_id (Configuration.Sleeping_ram host)
        | _ -> cfg
      in
      convert cfg (vm_id + 1)
  in
  convert target 0

(* The consolidation skeleton with a pluggable placement optimiser, so
   alternative engines (the lib/place local-search portfolio) can reuse
   the whole decision flow — stops, RJSP, suspend-to-RAM preference —
   without lib/core depending on them. *)
let consolidation_with ~name ?(heuristic = Ffd.First_fit) ?(rules = [])
    ?(suspend_to_ram = false) optimize_fn =
  let decide obs =
    let live_queue = List.filter (fun v -> not (is_finished obs v)) obs.queue in
    (* finished vjobs disappear before the trial packing *)
    let config_after_stops = apply_stops obs.config obs.queue obs.finished in
    let outcome =
      Rjsp.solve ~heuristic ~rules ~config:config_after_stops
        ~demand:obs.demand ~queue:live_queue ()
    in
    let placed = List.concat_map Vjob.vms outcome.Rjsp.running in
    let optimize target_base =
      optimize_fn ~current:obs.config ~demand:obs.demand ~vjobs:live_queue
        ~placed ~target_base
    in
    if not suspend_to_ram then optimize outcome.Rjsp.ffd_config
    else
      (* RAM images pin memory on their hosts, which can gridlock the
         reconfiguration (a migration cycle without a pivot); fall back
         to disk suspension when that happens *)
      match
        optimize
          (prefer_ram_suspends ~current:obs.config outcome.Rjsp.ffd_config)
      with
      | result -> result
      | exception Planner.Stuck _ -> optimize outcome.Rjsp.ffd_config
  in
  { name; decide }

let consolidation ?(cp_timeout = Optimizer.default_timeout) ?cp_node_limit
    ?(heuristic = Ffd.First_fit) ?(rules = []) ?(suspend_to_ram = false) () =
  let name =
    if suspend_to_ram then "dynamic-consolidation+ram"
    else "dynamic-consolidation"
  in
  consolidation_with ~name ~heuristic ~rules ~suspend_to_ram
    (fun ~current ~demand ~vjobs ~placed ~target_base ->
      Optimizer.optimize ~timeout:cp_timeout ?node_limit:cp_node_limit
        ~vjobs ~rules ~current ~demand ~placed ~target_base
        ~fallback:target_base ())

(* Weighted variant: the queue is ordered by decreasing vjob weight
   (ties FCFS) before the RJSP scan — the "vjob weights or priority
   queues" the paper's section 3.2 mentions as common approaches. Higher
   weights are served (and so suspended last) first. *)
let weighted ?(cp_timeout = Optimizer.default_timeout) ?cp_node_limit
    ?(heuristic = Ffd.First_fit) ?(rules = []) ?(suspend_to_ram = false)
    ~weight () =
  let base =
    consolidation ~cp_timeout ?cp_node_limit ~heuristic ~rules
      ~suspend_to_ram ()
  in
  let decide obs =
    let reorder =
      List.stable_sort
        (fun a b ->
          match Int.compare (weight b) (weight a) with
          | 0 -> Vjob.compare_fcfs a b
          | c -> c)
        obs.queue
    in
    (* re-rank priorities so the RJSP's FCFS sort preserves the weight
       order *)
    let queue =
      List.mapi
        (fun rank vj ->
          Vjob.make ~id:(Vjob.id vj) ~name:(Vjob.name vj)
            ~vms:(Vjob.vms vj) ~priority:rank
            ~submit_time:(Vjob.submit_time vj) ())
        reorder
    in
    base.decide { obs with queue }
  in
  { name = "weighted-consolidation"; decide }

(* Ablation: the plain FFD heuristic, no CP optimisation — the baseline
   of Figure 10. The consolidation flow with a placement step that keeps
   the RJSP's first-fit configuration as it is. *)
let ffd_only () =
  consolidation_with ~name:"first-fit-only"
    (fun ~current ~demand ~vjobs ~placed:_ ~target_base ->
      let plan =
        Planner.build ~vjobs ~current ~target:target_base ~demand ()
      in
      {
        Optimizer.target = target_base;
        plan;
        cost = Plan.cost current plan;
        improved = false;
        rules_satisfied = true;
        stats = None;
      })

(* The cost model of Table 1. Costs are expressed in MB of memory to
   manipulate — the study of section 2.3 shows migration, suspend and
   resume durations are led by the VM's memory demand, while run and stop
   durations are independent of it (modelled as the constant 0).

   A remote resume must move the image to the destination first, hence
   twice the local cost. *)

let run_cost = 0
let stop_cost = 0

let action config action =
  let mem = Vm.memory_mb (Configuration.vm config (Action.vm action)) in
  match action with
  | Action.Run _ -> run_cost
  | Action.Stop _ -> stop_cost
  | Action.Migrate _ -> mem
  | Action.Suspend _ -> mem
  | Action.Resume { src; dst; _ } -> if src = dst then mem else 2 * mem
  (* RAM suspends/resumes do not write the image anywhere: like run and
     stop, their duration is led by the software, not the memory size *)
  | Action.Suspend_ram _ | Action.Resume_ram _ -> 0

(* Cost of a pool: its most expensive action (they run in parallel). *)
let pool config actions =
  List.fold_left (fun acc a -> max acc (action config a)) 0 actions

(* Cost of a whole plan: each action pays the cost of every pool executed
   before its own, plus its local cost; the plan cost is the sum over all
   actions. Delaying an action therefore degrades the plan (section 4.2). *)
let plan config pools =
  let _, total =
    List.fold_left
      (fun (elapsed, total) pool_actions ->
        let pool_total =
          List.fold_left
            (fun acc a -> acc + elapsed + action config a)
            0 pool_actions
        in
        (elapsed + pool config pool_actions, total + pool_total))
      (0, 0) pools
  in
  total

(* Admissible lower bound on the cost of any plan reaching [target] from
   [current]: every VM pays at least its local action cost, ignoring
   sequencing penalties. The optimiser does not call it: it is the
   reference the admissibility argument behind the CP objective is
   checked against (plans never cost less, a tier-1 property). *)
let lower_bound ~current ~target =
  let acc = ref 0 in
  for vm_id = 0 to Configuration.vm_count current - 1 do
    let mem = Vm.memory_mb (Configuration.vm current vm_id) in
    let c =
      match (Configuration.state current vm_id, Configuration.state target vm_id)
      with
      | Configuration.Running s, Configuration.Running d ->
        if s = d then 0 else mem
      | Configuration.Sleeping s, Configuration.Running d ->
        if s = d then mem else 2 * mem
      | Configuration.Running _, Configuration.Sleeping _ -> mem
      | Configuration.Waiting, Configuration.Running _ -> run_cost
      | Configuration.Running _, Configuration.Terminated -> stop_cost
      | Configuration.Running _, Configuration.Sleeping_ram _
      | Configuration.Sleeping_ram _, Configuration.Running _ -> 0
      | _ -> 0
    in
    acc := !acc + c
  done;
  !acc

(* The Running Job Selection Problem (section 3.2): select the maximum
   number of vjobs that can run simultaneously, scanning the FCFS queue
   in priority order and trial-packing each vjob with First-Fit
   Decreasing. A vjob that does not fit is left Sleeping (if it has run
   before) or Waiting; since running VMs' demands change over time, the
   whole queue — including currently sleeping vjobs — is re-evaluated at
   every iteration of the control loop. *)

type outcome = {
  running : Vjob.t list;     (* vjobs selected to run *)
  ready : Vjob.t list;       (* vjobs left sleeping or waiting *)
  ffd_config : Configuration.t;
      (* the viable configuration built by the FFD trials: the plain
         heuristic solution, also used as the optimiser's fallback *)
}

let target_of_current config vm_id =
  match Configuration.state config vm_id with
  | Configuration.Running host -> Configuration.Sleeping host
  | ( Configuration.Waiting | Configuration.Sleeping _
    | Configuration.Sleeping_ram _ | Configuration.Terminated ) as s -> s

(* Base configuration: every queued vjob pulled off the cluster (running
   -> sleeping on its host), terminated VMs terminated. The FFD trials
   then re-admit vjobs one by one. *)
let base_configuration config queue =
  Configuration.edit config (fun e ->
      List.iter
        (fun vjob ->
          List.iter
            (fun vm_id ->
              Configuration.write e vm_id (target_of_current config vm_id))
            (Vjob.vms vjob))
        queue)

(* A vjob whose VMs are RAM-suspended can only resume in place: its
   images cannot move. Re-admission checks the CPU room on each image's
   host in the free view (the memory never left), claiming it there. *)
let resume_ram_in_place (free : Configuration.free) cfg demand vjob =
  let ok =
    List.for_all
      (fun vm_id ->
        match Configuration.state cfg vm_id with
        | Configuration.Sleeping_ram host ->
          let cpu = Demand.cpu demand vm_id in
          if free.cpu.(host) >= cpu then begin
            free.cpu.(host) <- free.cpu.(host) - cpu;
            true
          end
          else false
        | Configuration.Waiting | Configuration.Running _
        | Configuration.Sleeping _ | Configuration.Terminated -> false)
      (Vjob.vms vjob)
  in
  if not ok then None
  else
    Some
      (Configuration.edit cfg (fun e ->
           List.iter
             (fun vm_id ->
               match Configuration.state cfg vm_id with
               | Configuration.Sleeping_ram host ->
                 Configuration.write e vm_id (Configuration.Running host)
               | _ -> ())
             (Vjob.vms vjob)))

let all_ram_suspended cfg vjob =
  List.for_all
    (fun vm_id ->
      match Configuration.state cfg vm_id with
      | Configuration.Sleeping_ram _ -> true
      | _ -> false)
    (Vjob.vms vjob)

(* One free view follows the scan: a trial claims on a copy of it (two
   node-sized arrays), which replaces it when the vjob is selected. *)
let solve ?(heuristic = Ffd.First_fit) ?(rules = []) ~config ~demand ~queue
    () =
  let queue = List.sort Vjob.compare_fcfs queue in
  let base = base_configuration config queue in
  let running, ready, ffd_config, _ =
    List.fold_left
      (fun (running, ready, cfg, (free : Configuration.free)) vjob ->
        let trial =
          { Configuration.cpu = Array.copy free.cpu; mem = Array.copy free.mem }
        in
        let placement =
          if all_ram_suspended cfg vjob then
            resume_ram_in_place trial cfg demand vjob
          else Ffd.place_in ~heuristic ~rules trial cfg demand (Vjob.vms vjob)
        in
        match placement with
        | Some cfg' -> (vjob :: running, ready, cfg', trial)
        | None -> (running, vjob :: ready, cfg, free))
      ([], [], base, Configuration.free_view base demand)
      queue
  in
  { running = List.rev running; ready = List.rev ready; ffd_config }

let selected outcome vjob =
  List.exists (fun v -> Vjob.id v = Vjob.id vjob) outcome.running

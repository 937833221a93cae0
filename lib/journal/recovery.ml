(* Crash recovery: journal replay and observation-driven reconciliation.

   Replay is a pure fold over the record stream; the last Switch_begin
   wins and later records of that switch mutate its reconstructed
   state. Reconciliation never trusts the journal over the cluster: the
   journal tells us what the controller *intended* (the plan, and which
   actions reached a terminal record), the observation tells us what
   actually holds, and every VM is classified by where its observed
   state falls on the chain of states its planned actions walk through.

   The chain view matters because a plan may touch one VM twice (bypass
   migrations, disk-backed cycle breaks): seeing the VM in the
   intermediate state means the first hop landed and the second did not
   — a pending VM, not a diverged one. *)

open Entropy_core
module Repair = Entropy_fault.Repair
module Obs = Entropy_obs.Obs
module Metrics = Entropy_obs.Metrics

let m_done = lazy (Metrics.counter "journal.resume.done")
let m_pending = lazy (Metrics.counter "journal.resume.pending")
let m_frozen = lazy (Metrics.counter "journal.resume.frozen")

type switch_state = {
  switch : int;
  begun_at : float;
  source : Configuration.t;
  target : Configuration.t;
  plan : Plan.t;
  demand : Demand.t;
  seed : int option;
  done_actions : (int * Action.t) list;
  failed_actions : (int * Action.t) list;
  in_flight : (int * Action.t) list;
  committed_pools : int list;
  ended : bool;
  aborted : bool;
}

let fresh_state ~switch ~begun_at ~source ~target ~plan ~demand ~seed =
  {
    switch;
    begun_at;
    source;
    target;
    plan;
    demand;
    seed;
    done_actions = [];
    failed_actions = [];
    in_flight = [];
    committed_pools = [];
    ended = false;
    aborted = false;
  }

let drop_in_flight st action =
  List.filter (fun (_, a) -> not (Action.equal a action)) st.in_flight

let step acc record =
  match (record, acc) with
  | Record.Switch_begin { switch; at_s; source; target; plan; demand; seed }, _
    ->
    Some (fresh_state ~switch ~begun_at:at_s ~source ~target ~plan ~demand ~seed)
  (* daemon-level records (admission decisions, ladder transitions) are
     not part of any switch: the daemon's own resume path folds them *)
  | (Record.Submission _ | Record.Ladder _), _ -> acc
  | _, None ->
    Log.warn (fun m ->
        m "ignoring record before any switch begin: %a" Record.pp record);
    None
  | r, Some st when Record.switch r <> st.switch || st.ended ->
    Log.warn (fun m -> m "ignoring stray record: %a" Record.pp r);
    acc
  | Record.Action_started { pool; action; _ }, Some st ->
    Some { st with in_flight = drop_in_flight st action @ [ (pool, action) ] }
  | Record.Action_done { pool; action; _ }, Some st ->
    Some
      {
        st with
        done_actions = st.done_actions @ [ (pool, action) ];
        in_flight = drop_in_flight st action;
      }
  | Record.Action_failed { pool; action; _ }, Some st ->
    Some
      {
        st with
        failed_actions = st.failed_actions @ [ (pool, action) ];
        in_flight = drop_in_flight st action;
      }
  | Record.Pool_committed { pool; _ }, Some st ->
    if List.mem pool st.committed_pools then acc
    else Some { st with committed_pools = st.committed_pools @ [ pool ] }
  | Record.Switch_end { aborted; _ }, Some st ->
    Some { st with ended = true; aborted }

let replay records =
  Obs.span ~cat:"journal" ~name:"journal.replay"
    ~args:[ ("records", Entropy_obs.Trace.I (List.length records)) ]
    (fun () ->
      let state = List.fold_left step None records in
      (match state with
      | Some st ->
        Log.info (fun m ->
            m "replayed switch %d: %d done, %d failed, %d in flight%s"
              st.switch
              (List.length st.done_actions)
              (List.length st.failed_actions)
              (List.length st.in_flight)
              (if st.ended then " (ended)" else ""))
      | None -> Log.info (fun m -> m "replay: empty journal"));
      state)

let projected_config state =
  List.fold_left
    (fun config (_, action) ->
      try Action.apply config action with Action.Invalid _ -> config)
    state.source state.done_actions

type vm_class = Done | Pending | Frozen

type reconciliation = {
  target : Configuration.t;
  plan : Plan.t option;
  classes : (Vm.id * vm_class) list;
  done_vms : Vm.id list;
  pending_vms : Vm.id list;
  frozen_vms : Vm.id list;
  residue : Repair.residue;
}

(* The chain of states [vm] passes through under the journaled plan,
   starting at its source state. Applying only this VM's actions over
   the full source configuration is sound because [Action.apply] checks
   life-cycle preconditions, not resources. *)
let state_chain (state : switch_state) vm =
  let actions =
    List.filter (fun a -> Action.vm a = vm) (Plan.actions state.plan)
  in
  let rec go config acc = function
    | [] -> List.rev acc
    | a :: rest -> (
      match Action.apply config a with
      | config' -> go config' (Configuration.state config' vm :: acc) rest
      | exception Action.Invalid reason ->
        (* a valid plan never hits this; tolerate odd journals *)
        Log.warn (fun m ->
            m "vm %d: chain application of %a impossible: %s" vm Action.pp a
              reason);
        List.rev acc)
  in
  go state.source [ Configuration.state state.source vm ] actions

let reconcile ?vjobs ~state ~observed () =
  if Configuration.vm_count observed <> Configuration.vm_count state.source
  then
    invalid_arg "Recovery.reconcile: observation and journal VM counts differ";
  if
    Configuration.node_count observed <> Configuration.node_count state.source
  then
    invalid_arg
      "Recovery.reconcile: observation and journal node counts differ";
  let vm_count = Configuration.vm_count observed in
  let classes =
    List.init vm_count (fun vm ->
        let chain = state_chain state vm in
        let obs = Configuration.state observed vm in
        let final = List.nth chain (List.length chain - 1) in
        let cls =
          if Configuration.equal_vm_state obs final then Done
          else if List.exists (Configuration.equal_vm_state obs) chain then
            Pending
          else Frozen
        in
        (vm, cls))
  in
  let of_class c =
    List.filter_map (fun (vm, k) -> if k = c then Some vm else None) classes
  in
  let done_vms = of_class Done
  and pending_vms = of_class Pending
  and frozen_vms = of_class Frozen in
  let frozen vm = List.mem vm frozen_vms in
  (* A VM observed Terminated that the plan never terminates simply
     finished while the controller was down: frozen (Terminated moves
     nowhere) but benign — no repair needed for it. *)
  let benign vm =
    Configuration.equal_vm_state (Configuration.state observed vm)
      Configuration.Terminated
  in
  let failed_not_done =
    List.filter_map
      (fun (_, a) ->
        let vm = Action.vm a in
        if List.mem vm done_vms then None else Some vm)
      state.failed_actions
  in
  let residue_failed =
    List.sort_uniq compare
      (failed_not_done @ List.filter (fun vm -> not (benign vm)) frozen_vms)
  in
  let lost_nodes =
    (* crashed nodes the target still needs for a live (non-frozen) VM *)
    List.init vm_count Fun.id
    |> List.filter_map (fun vm ->
           if frozen vm then None
           else
             match Configuration.state state.target vm with
             | Configuration.Running n
             | Configuration.Sleeping n
             | Configuration.Sleeping_ram n ->
               if Node.is_crashed (Configuration.node observed n) then Some n
               else None
             | Configuration.Waiting | Configuration.Terminated -> None)
    |> List.sort_uniq compare
  in
  let residue = Repair.{ failed_vms = residue_failed; lost_nodes } in
  let target =
    Rgraph.salvage_target ~current:observed
      ~target:(Rgraph.normalize_sleeping ~current:observed state.target)
      ~frozen
  in
  let plan =
    if Repair.residue_ok residue then
      match
        Planner.build_plan ?vjobs ~current:observed ~target
          ~demand:state.demand ()
      with
      | plan -> Some plan
      | exception ((Planner.Stuck _ | Rgraph.Unreachable _) as e) ->
        Log.warn (fun m ->
            m "resume plan impossible, handing to repair: %s"
              (Printexc.to_string e));
        None
    else None
  in
  if !Obs.enabled then (
    Metrics.add (Lazy.force m_done) (List.length done_vms);
    Metrics.add (Lazy.force m_pending) (List.length pending_vms);
    Metrics.add (Lazy.force m_frozen) (List.length frozen_vms));
  Log.info (fun m ->
      m "reconciled switch %d: %d done, %d pending, %d frozen, %s" state.switch
        (List.length done_vms)
        (List.length pending_vms)
        (List.length frozen_vms)
        (if Repair.residue_ok residue then
           match plan with
           | Some p -> Fmt.str "resume plan of %d actions" (Plan.action_count p)
           | None -> "planner stuck"
         else Fmt.str "residue (%a)" Repair.pp_residue residue));
  { target; plan; classes; done_vms; pending_vms; frozen_vms; residue }

type resume = {
  state : switch_state;
  reconciliation : reconciliation;
  target : Configuration.t;
  plan : Plan.t;
  repaired : bool;
}

(* The one resume derivation every controller shares: reconcile over the
   vjobs still live in the observation; on divergence (or a stuck
   planner) hand the residue to repair; with nothing to repair towards,
   an empty plan leaves the next step to the caller's own loop. *)
let resume_plan ~vjobs ~observed state =
  let queue =
    List.filter
      (fun vj -> not (Configuration.vjob_terminated observed vj))
      vjobs
  in
  let reconciliation = reconcile ~vjobs:queue ~state ~observed () in
  let target, plan, repaired =
    match reconciliation.plan with
    | Some plan -> (reconciliation.target, plan, false)
    | None -> (
      match
        Repair.repair_residue ~vjobs:queue ~current:observed
          ~target:reconciliation.target ~demand:state.demand ~queue
          reconciliation.residue ()
      with
      | Some o -> (o.Repair.target, o.Repair.plan, true)
      | None -> (reconciliation.target, Plan.empty, true))
  in
  Log.info (fun m ->
      m "resuming switch %d with a %d-action plan%s" state.switch
        (Plan.action_count plan)
        (if repaired then " (via repair)" else ""));
  { state; reconciliation; target; plan; repaired }

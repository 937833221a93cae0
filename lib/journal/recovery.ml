(* The one reader of switch records, and crash recovery on top of it.

   [switches] folds the record stream into one value per switch, a slot
   per plan action collecting its attempt starts and terminal outcome.
   The records are sparse (a terminal may come with no start, a killed
   controller writes no Switch_end), so the fold assumes none of them.

   Reconciliation never trusts the journal over the cluster: the
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

type terminal = Done of float | Failed of float

let terminal_at = function Done t | Failed t -> t

type slot = {
  action : Action.t;
  plan_pool : int;
  record_pool : int;
  attempts : float list;
  terminal : terminal option;
}

type switch = {
  switch : int;
  begun_at : float;
  source : Configuration.t;
  target : Configuration.t;
  plan : Plan.t;
  demand : Demand.t;
  seed : int option;
  slots : slot array;
  commits : (int * float) list;
  end_at : float option;
  aborted : bool;
  last_event : float;
  unmatched : int;
}

let opened ~switch ~at_s ~source ~target ~plan ~demand ~seed =
  let slot p action =
    { action; plan_pool = p; record_pool = p; attempts = []; terminal = None }
  in
  {
    switch;
    begun_at = at_s;
    source;
    target;
    plan;
    demand;
    seed;
    slots =
      Array.of_list
        (List.concat
           (List.mapi (fun p -> List.map (slot p)) (Plan.pools plan)));
    commits = [];
    end_at = None;
    aborted = false;
    last_event = at_s;
    unmatched = 0;
  }

(* The slot an action record belongs to. Plans almost never repeat an
   identical action, but the match still prefers a slot without a
   terminal outcome, then one whose plan pool agrees with the record's,
   then (for a terminal) one already started, so even adversarial
   journals attach records deterministically. Comparing VM ids first
   keeps the scan off the polymorphic equality. *)
let find_slot sw ~pool ~action ~terminal =
  let vm = Action.vm action in
  let best = ref (-1) and best_rank = ref min_int in
  for i = 0 to Array.length sw.slots - 1 do
    let s = sw.slots.(i) in
    if Action.vm s.action = vm && Action.equal s.action action then begin
      let rank =
        (if s.terminal = None then 4 else 0)
        + (if s.plan_pool = pool then 2 else 0)
        + if terminal = (s.attempts <> []) then 1 else 0
      in
      if rank > !best_rank then begin
        best_rank := rank;
        best := i
      end
    end
  done;
  if !best < 0 then None else Some !best

let touch sw at_s =
  if at_s > sw.last_event then { sw with last_event = at_s } else sw

(* The fold owns each switch's slot array: a matched record rewrites its
   slot in place. *)
let attach ~pool ~at_s ~action terminal sw =
  let sw = touch sw at_s in
  match find_slot sw ~pool ~action ~terminal:(terminal <> None) with
  | None -> { sw with unmatched = sw.unmatched + 1 }
  | Some i ->
    let s = sw.slots.(i) in
    sw.slots.(i) <-
      (if terminal = None then
         { s with record_pool = pool; attempts = s.attempts @ [ at_s ] }
       else { s with record_pool = pool; terminal });
    sw

(* [begun] holds the switches most recent begin first; a record updates
   the most recent switch begun with its id, and one with no begun
   switch changes nothing. *)
let rec update id f = function
  | [] -> []
  | sw :: rest when sw.switch = id -> f sw :: rest
  | sw :: rest -> sw :: update id f rest

let step begun = function
  | Record.Switch_begin { switch; at_s; source; target; plan; demand; seed } ->
    opened ~switch ~at_s ~source ~target ~plan ~demand ~seed :: begun
  | Record.Action_started { switch; pool; at_s; action; _ } ->
    update switch (attach ~pool ~at_s ~action None) begun
  | Record.Action_done { switch; pool; at_s; action } ->
    update switch (attach ~pool ~at_s ~action (Some (Done at_s))) begun
  | Record.Action_failed { switch; pool; at_s; action } ->
    update switch (attach ~pool ~at_s ~action (Some (Failed at_s))) begun
  | Record.Pool_committed { switch; pool; at_s } ->
    update switch
      (fun sw ->
        { (touch sw at_s) with commits = sw.commits @ [ (pool, at_s) ] })
      begun
  | Record.Switch_end { switch; at_s; aborted } ->
    update switch
      (fun sw -> { (touch sw at_s) with end_at = Some at_s; aborted })
      begun
  (* daemon-level records (admission decisions, ladder transitions) are
     not part of any switch: the daemon's own resume path folds them *)
  | Record.Submission _ | Record.Ladder _ -> begun

let switches records = List.rev (List.fold_left step [] records)

let slot_actions keep sw =
  Array.fold_right
    (fun s acc -> if keep s then s.action :: acc else acc)
    sw.slots []

let done_actions =
  slot_actions (fun s ->
      match s.terminal with Some (Done _) -> true | _ -> false)

let failed_actions =
  slot_actions (fun s ->
      match s.terminal with Some (Failed _) -> true | _ -> false)

let in_flight = slot_actions (fun s -> s.attempts <> [] && s.terminal = None)

let replay records =
  Obs.span ~cat:"journal" ~name:"journal.replay"
    ~args:[ ("records", Entropy_obs.Trace.I (List.length records)) ]
    (fun () ->
      (* only the last switch begun matters: fold from its begin *)
      let rec last found = function
        | [] -> found
        | Record.Switch_begin _ :: rest as from -> last from rest
        | _ :: rest -> last found rest
      in
      match switches (last [] records) with
      | sw :: _ ->
        Log.info (fun m ->
            m "replayed switch %d: %d done, %d failed, %d in flight%s"
              sw.switch
              (List.length (done_actions sw))
              (List.length (failed_actions sw))
              (List.length (in_flight sw))
              (if sw.end_at <> None then " (ended)" else ""));
        Some sw
      | [] ->
        Log.info (fun m -> m "replay: empty journal");
        None)

let projected_config sw =
  List.fold_left
    (fun config action ->
      try Action.apply config action with Action.Invalid _ -> config)
    sw.source (done_actions sw)

type reconciliation = {
  target : Configuration.t;
  plan : Plan.t option;
  done_vms : Vm.id list;
  pending_vms : Vm.id list;
  frozen_vms : Vm.id list;
  residue : Repair.residue;
}

(* The chain of states [vm] passes through under the journaled plan,
   starting at its source state. Applying only this VM's actions over
   the full source configuration is sound because [Action.apply] checks
   life-cycle preconditions, not resources. *)
let state_chain (state : switch) vm =
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
          if Configuration.equal_vm_state obs final then `Done
          else if List.exists (Configuration.equal_vm_state obs) chain then
            `Pending
          else `Frozen
        in
        (vm, cls))
  in
  let of_class c =
    List.filter_map (fun (vm, k) -> if k = c then Some vm else None) classes
  in
  let done_vms = of_class `Done
  and pending_vms = of_class `Pending
  and frozen_vms = of_class `Frozen in
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
      (fun a ->
        let vm = Action.vm a in
        if List.mem vm done_vms then None else Some vm)
      (failed_actions state)
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
        Planner.build ?vjobs ~current:observed ~target
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
  { target; plan; done_vms; pending_vms; frozen_vms; residue }

type resume = {
  state : switch;
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
      let { Repair.failed_vms; lost_nodes } = reconciliation.residue in
      match
        Repair.repair ~vjobs:queue ~current:observed
          ~target:reconciliation.target ~demand:state.demand ~queue
          ~failed_vms ~lost_nodes ()
      with
      | Some o -> (o.Repair.target, o.Repair.plan, true)
      | None -> (reconciliation.target, Plan.empty, true))
  in
  Log.info (fun m ->
      m "resuming switch %d with a %d-action plan%s" state.switch
        (Plan.action_count plan)
        (if repaired then " (via repair)" else ""));
  { state; reconciliation; target; plan; repaired }

(* The one reader of switch records, and crash recovery on top of it.

   [switches] folds the record stream into one value per switch, a slot
   per plan action collecting its attempt starts and terminal outcome.
   The records are sparse (a terminal may come with no start, a killed
   controller writes no Switch_end), so the fold assumes none of them.
   It is linear in the records: an action record finds its slot through
   the switch's index by VM, not a scan of every slot.

   Reconciliation never trusts the journal over the cluster: the
   journal tells us what the controller *intended* (the plan, and which
   actions reached a terminal record), the observation tells us what
   actually holds, and every VM is classified by where its observed
   state falls on the chain of states its planned actions walk through.

   The chain view matters because a plan may touch one VM twice (bypass
   migrations, disk-backed cycle breaks): seeing the VM in the
   intermediate state means the first hop landed and the second did not
   — a pending VM, not a diverged one. Reconciliation groups the plan's
   actions by VM once and builds every chain from its own group. *)

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

(* A switch as the fold holds it: the begin record's reading, whose
   slot array the fold owns and rewrites in place (each slot's attempts
   newest first), an index from VM id to that VM's slots in ascending
   order (an action record ranks only the slots of its own VM), and the
   rest of the reading, set in place until [close] freezes it. *)
type open_switch = {
  opened : switch;
  by_vm : (Vm.id, int list) Hashtbl.t;
  mutable commits : (int * float) list;  (* newest first *)
  mutable end_at : float option;
  mutable aborted : bool;
  mutable last_event : float;
  mutable unmatched : int;
}

let open_switch sw =
  let by_vm = Hashtbl.create (Array.length sw.slots) in
  for i = Array.length sw.slots - 1 downto 0 do
    let vm = Action.vm sw.slots.(i).action in
    Hashtbl.replace by_vm vm
      (i :: Option.value ~default:[] (Hashtbl.find_opt by_vm vm))
  done;
  {
    opened = sw;
    by_vm;
    commits = [];
    end_at = None;
    aborted = false;
    last_event = sw.last_event;
    unmatched = 0;
  }

let close o =
  let slots = o.opened.slots in
  Array.iteri
    (fun i s ->
      match s.attempts with
      | _ :: _ :: _ -> slots.(i) <- { s with attempts = List.rev s.attempts }
      | [] | [ _ ] -> ())
    slots;
  {
    o.opened with
    commits = List.rev o.commits;
    end_at = o.end_at;
    aborted = o.aborted;
    last_event = o.last_event;
    unmatched = o.unmatched;
  }

(* The slot an action record belongs to. Plans almost never repeat an
   identical action, but the match still prefers a slot without a
   terminal outcome, then one whose plan pool agrees with the record's,
   then (for a terminal) one already started, so even adversarial
   journals attach records deterministically; among equal ranks the
   first slot wins. -1 when no slot holds the action. *)
let find_slot o ~pool ~action ~terminal =
  let slots = o.opened.slots in
  let rec best i rank = function
    | [] -> i
    | j :: rest ->
      let s = slots.(j) in
      if Action.equal s.action action then
        let r =
          (if s.terminal = None then 4 else 0)
          + (if s.plan_pool = pool then 2 else 0)
          + if terminal = (s.attempts <> []) then 1 else 0
        in
        if r > rank then best j r rest else best i rank rest
      else best i rank rest
  in
  match Hashtbl.find o.by_vm (Action.vm action) with
  | candidates -> best (-1) min_int candidates
  | exception Not_found -> -1

let touch o at_s = if at_s > o.last_event then o.last_event <- at_s

let attach ~pool ~at_s ~action terminal o =
  touch o at_s;
  match find_slot o ~pool ~action ~terminal:(terminal <> None) with
  | -1 -> o.unmatched <- o.unmatched + 1
  | i ->
    let slots = o.opened.slots in
    let s = slots.(i) in
    slots.(i) <-
      (if terminal = None then
         { s with record_pool = pool; attempts = at_s :: s.attempts }
       else { s with record_pool = pool; terminal })

(* A switch record (one that is not a [Switch_begin]) read into its
   switch. *)
let read o = function
  | Record.Action_started { pool; at_s; action; _ } ->
    attach ~pool ~at_s ~action None o
  | Record.Action_done { pool; at_s; action; _ } ->
    attach ~pool ~at_s ~action (Some (Done at_s)) o
  | Record.Action_failed { pool; at_s; action; _ } ->
    attach ~pool ~at_s ~action (Some (Failed at_s)) o
  | Record.Pool_committed { pool; at_s; _ } ->
    touch o at_s;
    o.commits <- (pool, at_s) :: o.commits
  | Record.Switch_end { at_s; aborted; _ } ->
    touch o at_s;
    o.end_at <- Some at_s;
    o.aborted <- aborted
  | Record.Switch_begin _ | Record.Submission _ | Record.Ladder _ -> ()

(* [begun] holds the switches most recent begin first; a record updates
   the most recent switch begun with its id, and one with no begun
   switch changes nothing. *)
let rec read_into id r = function
  | [] -> ()
  | o :: rest -> if o.opened.switch = id then read o r else read_into id r rest

let step begun = function
  | Record.Switch_begin { switch; at_s; source; target; plan; demand; seed } ->
    open_switch (opened ~switch ~at_s ~source ~target ~plan ~demand ~seed)
    :: begun
  (* daemon-level records (admission decisions, ladder transitions) are
     not part of any switch: the daemon's own resume path folds them *)
  | Record.Submission _ | Record.Ladder _ -> begun
  | r ->
    read_into (Record.switch r) r begun;
    begun

let switches records = List.rev_map close (List.fold_left step [] records)

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

(* The chain of states [vm] passes through under its planned [actions]
   (in plan order), starting at its source state. Applying only this
   VM's actions over the full source configuration is sound because
   [Action.apply] checks life-cycle preconditions, not resources. *)
let state_chain (state : switch) vm actions =
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
  let known vm = vm >= 0 && vm < vm_count in
  (* each VM's planned actions, in plan order, grouped in one pass *)
  let by_vm = Array.make vm_count [] in
  List.iter
    (fun a ->
      let vm = Action.vm a in
      if known vm then by_vm.(vm) <- a :: by_vm.(vm))
    (List.rev (Plan.actions state.plan));
  let classes =
    Array.init vm_count (fun vm ->
        let chain = state_chain state vm by_vm.(vm) in
        let obs = Configuration.state observed vm in
        let final = List.nth chain (List.length chain - 1) in
        if Configuration.equal_vm_state obs final then `Done
        else if List.exists (Configuration.equal_vm_state obs) chain then
          `Pending
        else `Frozen)
  in
  let vms = List.init vm_count Fun.id in
  let of_class c = List.filter (fun vm -> classes.(vm) = c) vms in
  let done_vms = of_class `Done
  and pending_vms = of_class `Pending
  and frozen_vms = of_class `Frozen in
  let frozen vm = classes.(vm) = `Frozen in
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
        if known vm && classes.(vm) = `Done then None else Some vm)
      (failed_actions state)
  in
  let residue_failed =
    List.sort_uniq compare
      (failed_not_done @ List.filter (fun vm -> not (benign vm)) frozen_vms)
  in
  let lost_nodes =
    (* crashed nodes the target still needs for a live (non-frozen) VM *)
    vms
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

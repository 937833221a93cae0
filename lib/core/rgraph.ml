(* The reconfiguration graph (section 4.1): the set of actions needed to
   move from the current configuration to a target one, one action per
   VM whose state must change. The planner re-derives this graph after
   each pool, which also transparently handles bypass migrations (the
   bypassed VM simply gets a fresh migration from its pivot). *)

exception Unreachable of string

let unreachable fmt = Fmt.kstr (fun s -> raise (Unreachable s)) fmt

(* The action that moves [vm_id] from state [cur] to state [tgt], or
   [None] when no action is needed: always so when the two are equal. *)
let transition vm_id cur tgt =
  let open Configuration in
  match (cur, tgt) with
  | Waiting, Waiting | Terminated, Terminated -> None
  | Waiting, Running dst -> Some (Action.Run { vm = vm_id; dst })
  | Waiting, Terminated -> None (* cancelled before ever running *)
  | Running src, Running dst ->
    if src = dst then None else Some (Action.Migrate { vm = vm_id; src; dst })
  | Running host, Sleeping _ ->
    (* a suspend writes the image locally: the stored location is the
       current host, whatever the target announces *)
    Some (Action.Suspend { vm = vm_id; host })
  | Running host, Sleeping_ram _ ->
    Some (Action.Suspend_ram { vm = vm_id; host })
  | Running host, Terminated -> Some (Action.Stop { vm = vm_id; host })
  | Sleeping src, Running dst -> Some (Action.Resume { vm = vm_id; src; dst })
  | Sleeping_ram host, Running dst ->
    if dst = host then Some (Action.Resume_ram { vm = vm_id; host })
    else
      unreachable "VM %d: a RAM image cannot move (host N%d, asked N%d)"
        vm_id host dst
  | Sleeping _, Sleeping _ -> None (* the image stays where it is *)
  | Sleeping_ram _, Sleeping_ram _ -> None
  | (Sleeping _ | Sleeping_ram _), Terminated ->
    None (* discard the image; no VM action *)
  | Sleeping _, Sleeping_ram _ | Sleeping_ram _, Sleeping _ ->
    unreachable "VM %d: cannot move an image between disk and RAM" vm_id
  | Waiting, (Sleeping _ | Sleeping_ram _) ->
    unreachable "VM %d: cannot go from waiting to sleeping" vm_id
  | (Running _ | Sleeping _ | Sleeping_ram _), Waiting ->
    unreachable "VM %d: cannot go back to waiting" vm_id
  | Terminated, (Waiting | Running _ | Sleeping _ | Sleeping_ram _) ->
    unreachable "VM %d: cannot leave the terminated state" vm_id

let action_for ~current ~target vm_id =
  transition vm_id
    (Configuration.state current vm_id)
    (Configuration.state target vm_id)

(* All pending actions between two configurations, in ascending VM id.
   Only VMs whose states differ can need one, so the chunks the two
   configurations share are skipped: the planner derives the graph
   again after each pool, from an edit of the configuration the
   target was itself written from. The transitions are taken from the
   last VM down, so an unreachable target names its highest VM. *)
let actions ~current ~target =
  if Configuration.vm_count current <> Configuration.vm_count target then
    invalid_arg "Rgraph.actions: configurations with different VM sets";
  let changed = ref [] in
  Configuration.iter_changed
    (fun vm_id cur tgt -> changed := (vm_id, cur, tgt) :: !changed)
    current target;
  let acc =
    List.fold_left
      (fun acc (vm_id, cur, tgt) ->
        match transition vm_id cur tgt with Some a -> a :: acc | None -> acc)
      [] !changed
  in
  if !Entropy_obs.Obs.enabled then begin
    let module Metrics = Entropy_obs.Metrics in
    Metrics.incr (Metrics.counter "rgraph.derivations");
    Metrics.add (Metrics.counter "rgraph.actions") (List.length acc)
  end;
  acc

(* Salvage after a failed action: every frozen VM (typically the VMs
   whose actions terminally failed) keeps its current state in the
   target, so re-deriving the graph against the patched target yields
   exactly the surviving actions — the dependency closure minus
   everything invalidated by the freeze. *)
let salvage_target ~current ~target ~frozen =
  if Configuration.vm_count current <> Configuration.vm_count target then
    invalid_arg "Rgraph.salvage_target: configurations with different VM sets";
  let result = ref target in
  for vm_id = 0 to Configuration.vm_count target - 1 do
    if
      frozen vm_id
      && not
           (Configuration.equal_vm_state
              (Configuration.state current vm_id)
              (Configuration.state target vm_id))
    then
      result :=
        Configuration.set_state !result vm_id
          (Configuration.state current vm_id)
  done;
  !result

(* Expected suspend location of every sleeping VM in [target], given
   where they run in [current]: suspends are local. Used to normalize a
   decision module's output before planning. Only a VM whose state
   differs can need it, so the chunks the two configurations share are
   skipped. *)
let normalize_sleeping ~current target =
  Configuration.edit target @@ fun e ->
  let relocate = Configuration.write e in
  Configuration.iter_changed
    (fun vm_id cur tgt ->
      match (cur, tgt) with
      | Configuration.Running host, Configuration.Sleeping loc when loc <> host
        -> relocate vm_id (Configuration.Sleeping host)
      | Configuration.Sleeping loc, Configuration.Sleeping loc' when loc <> loc'
        -> relocate vm_id (Configuration.Sleeping loc)
      | Configuration.Running host, Configuration.Sleeping_ram loc
        when loc <> host ->
        relocate vm_id (Configuration.Sleeping_ram host)
      | Configuration.Sleeping_ram loc, Configuration.Sleeping_ram loc'
        when loc <> loc' ->
        relocate vm_id (Configuration.Sleeping_ram loc)
      | _ -> ())
    current target

(* Plan construction (section 4.1).

   Starting from the reconfiguration graph between the current and the
   target configuration, pools are built iteratively:

   1. select every action whose claims fit simultaneously in the current
      intermediate configuration; they form the next pool;
   2. when no action is feasible, the remaining claiming actions form at
      least one cycle of inter-dependent migrations: a pivot node outside
      the cycle temporarily hosts one of the cycle's VMs (bypass
      migration), creating a one-action pool;
   3. the reconfiguration graph is re-derived from the resulting
      intermediate configuration, which folds the bypassed VM's pending
      move (pivot -> final destination) back into the graph;
   4. repeat until the intermediate configuration equals the target.

   Given the vjobs, the planner also keeps section 4.1's consistency
   rule as it selects pools: a vjob's resumes enter one pool together,
   a disk-route cycle break suspends the vjob's other blocked VMs in the
   same pool, and each pool is ordered by VM name. *)

module Obs = Entropy_obs.Obs
module Trace = Entropy_obs.Trace
module Metrics = Entropy_obs.Metrics

let m_pools = lazy (Metrics.counter "planner.pools")
let m_actions = lazy (Metrics.counter "planner.actions")
let m_bypass = lazy (Metrics.counter "planner.bypass")
let m_cycle_breaks = lazy (Metrics.counter "planner.cycle_breaks")

exception Stuck of string

let stuck fmt = Fmt.kstr (fun s -> raise (Stuck s)) fmt

(* -- vjob groups -------------------------------------------------------- *)

(* Section 4.1's consistency rule: a vjob's suspends, and likewise its
   resumes, run close together. [Grouped of_vm] maps each VM the switch
   moves to the index of its vjob; {!build} tables it once per plan.
   Only VMs whose state differs between [current] and [target] ever get
   an action, so the table holds those alone, not every VM. *)
type groups = Ungrouped | Grouped of (Vm.id, int) Hashtbl.t

let groups ~current ~target vjobs =
  let of_vm = Hashtbl.create 16 in
  List.iteri
    (fun j vjob ->
      List.iter
        (fun vm ->
          if
            not
              (Configuration.equal_vm_state
                 (Configuration.state current vm)
                 (Configuration.state target vm))
          then Hashtbl.replace of_vm vm j)
        (Vjob.vms vjob))
    vjobs;
  Grouped of_vm

let vjob_of of_vm a =
  Option.value (Hashtbl.find_opt of_vm (Action.vm a)) ~default:(-1)

let is_resume = function
  | Action.Resume _ | Action.Resume_ram _ -> true
  | Action.Run _ | Action.Stop _ | Action.Migrate _ | Action.Suspend _
  | Action.Suspend_ram _ -> false

(* A vjob's resumes in one pool selection: [busy] when the vjob has
   another pending action; [entered] once decided. *)
type resume_unit = {
  mutable busy : bool;
  mutable members : Action.t list;
  mutable entered : bool option;
}

(* Select a maximal set of actions simultaneously feasible from
   [config]: claims are accounted against a copy of the pool-start free
   resources [view], so resources freed by actions of this same pool
   are not reused. Grouped, a vjob's resumes form one unit, decided at
   its first member: it enters when the vjob has no other pending action
   and every member fits. Resumes only claim, so holding one back never
   blocks another action, and once only resumes remain the target's
   viability makes every unit fit. *)
let select_pool groups (view : Configuration.free) config demand actions =
  let free =
    { Configuration.cpu = Array.copy view.cpu; mem = Array.copy view.mem }
  in
  let charge sign a =
    match Action.claim config demand a with
    | None -> ()
    | Some (dst, cpu, mem) ->
      free.cpu.(dst) <- free.cpu.(dst) - (sign * cpu);
      free.mem.(dst) <- free.mem.(dst) - (sign * mem)
  in
  let take a =
    match Action.claim config demand a with
    | None -> true (* suspend/stop: always feasible *)
    | Some (dst, cpu, mem) ->
      let ok = free.cpu.(dst) >= cpu && free.mem.(dst) >= mem in
      if ok then charge 1 a;
      ok
  in
  match groups with
  | Ungrouped -> List.partition take actions
  | Grouped of_vm ->
    (* each vjob's resumes, and whether it has another pending action *)
    let units = Hashtbl.create 8 in
    List.iter
      (fun a ->
        let j = vjob_of of_vm a in
        if j >= 0 then begin
          let u =
            match Hashtbl.find_opt units j with
            | Some u -> u
            | None ->
              let u = { busy = false; members = []; entered = None } in
              Hashtbl.add units j u;
              u
          in
          if is_resume a then u.members <- a :: u.members else u.busy <- true
        end)
      actions;
    let enter u =
      let rec all taken = function
        | [] -> true
        | a :: rest ->
          if take a then all (a :: taken) rest
          else begin
            List.iter (charge (-1)) taken;
            false
          end
      in
      (not u.busy) && all [] (List.rev u.members)
    in
    List.partition
      (fun a ->
        let j = vjob_of of_vm a in
        if j < 0 || not (is_resume a) then take a
        else
          let u = Hashtbl.find units j in
          match u.entered with
          | Some entered -> entered
          | None ->
            let entered = enter u in
            u.entered <- Some entered;
            entered)
      actions

(* -- cycle detection ------------------------------------------------------ *)

(* Among blocked migrations, [m1] waits for [m2] when m2's source is m1's
   destination (m2 leaving would free room for m1). A cycle in this
   waits-for relation is the inter-dependency of Figure 8. *)
let find_migration_cycle blocked =
  let migrations =
    List.filter_map
      (function
        | Action.Migrate { vm; src; dst } -> Some (vm, src, dst)
        | Action.Run _ | Action.Stop _ | Action.Suspend _ | Action.Resume _
        | Action.Suspend_ram _ | Action.Resume_ram _ -> None)
      blocked
  in
  (* successor: first blocked migration whose source is my destination *)
  let successor (_, _, dst) =
    List.find_opt (fun (_, src', _) -> src' = dst) migrations
  in
  let rec chase seen m =
    let (vm, _, _) = m in
    if List.exists (fun (vm', _, _) -> vm' = vm) seen then
      (* cycle: the suffix of [seen] from the repeated element *)
      let rec suffix = function
        | [] -> []
        | (vm', _, _) :: _ as rest when vm' = vm -> rest
        | _ :: rest -> suffix rest
      in
      Some (suffix (List.rev (m :: seen)))
    else
      match successor m with
      | None -> None
      | Some next -> chase (m :: seen) next
  in
  let rec try_all = function
    | [] -> None
    | m :: rest -> (
      match chase [] m with Some c -> Some c | None -> try_all rest)
  in
  try_all migrations

(* Pick a pivot node outside the cycle that can host one of the cycle's
   VMs, and return the corresponding bypass migration. *)
let bypass_migration (free : Configuration.free) config demand cycle =
  let cycle_nodes =
    List.concat_map (fun (_, src, dst) -> [ src; dst ]) cycle
  in
  let candidates =
    List.concat_map
      (fun (vm, src, _) ->
        let cpu = Demand.cpu demand vm in
        let mem = Vm.memory_mb (Configuration.vm config vm) in
        List.filter_map
          (fun node ->
            let id = Node.id node in
            if
              (not (List.mem id cycle_nodes))
              && free.cpu.(id) >= cpu && free.mem.(id) >= mem
            then Some (Action.Migrate { vm; src; dst = id }, mem)
            else None)
          (Array.to_list (Configuration.nodes config)))
      cycle
  in
  (* cheapest bypass: smallest VM memory (both the extra migration and
     the later move back are charged Dm) *)
  match List.sort (fun (_, m1) (_, m2) -> Int.compare m1 m2) candidates with
  | [] -> None
  | (action, _) :: _ -> Some action

(* A disk-route cycle break suspends [vm] on [src]. Grouped, it also
   suspends every other VM of [vm]'s vjob that has a pending migration,
   so that the vjob's suspends share this one pool. Each is a sound
   cycle break: the pool is empty, so no remaining migration was
   feasible at pool start, and the verifier accepts it as such. *)
let disk_break groups remaining vm src =
  let break = Action.Suspend { vm; host = src } in
  match groups with
  | Ungrouped -> [ break ]
  | Grouped of_vm ->
    let j = vjob_of of_vm break in
    if j < 0 then [ break ]
    else
      break
      :: List.filter_map
           (function
             | Action.Migrate { vm = v; src = host; _ } as m
               when v <> vm && vjob_of of_vm m = j ->
               Some (Action.Suspend { vm = v; host })
             | _ -> None)
           remaining

(* Grouped pools run in VM-name order, which the executor pipelines. *)
let in_pool_order groups config pool =
  match groups with
  | Ungrouped -> pool
  | Grouped _ ->
    let by_vm_name a b =
      let va = Configuration.vm config (Action.vm a) in
      let vb = Configuration.vm config (Action.vm b) in
      match String.compare (Vm.name va) (Vm.name vb) with
      | 0 -> Int.compare (Vm.id va) (Vm.id vb)
      | c -> c
    in
    List.sort by_vm_name pool

(* -- main loop ------------------------------------------------------------ *)

let max_iterations = 10_000

(* One pool from [config] towards [target], or [None] once there is
   nothing left to do. [free] is [config]'s free view on entry and the
   next configuration's on return: it is shifted by the VMs the pool
   moved, not rebuilt from every VM. *)
let next_pool groups free ~target ~demand config =
  let remaining = Rgraph.actions ~current:config ~target in
  if remaining = [] then None
  else
    let pool =
      match select_pool groups free config demand remaining with
      | (_ :: _ as selected), _postponed ->
        if !Obs.enabled then begin
          Metrics.incr (Lazy.force m_pools);
          Metrics.add (Lazy.force m_actions) (List.length selected)
        end;
        selected
      | [], _ -> (
        match find_migration_cycle remaining with
        | None ->
          stuck "no feasible action and no migration cycle: target %s"
            "is not reachable (is it viable?)"
        | Some cycle -> (
          match bypass_migration free config demand cycle with
          | Some bypass ->
            if !Obs.enabled then begin
              (match bypass with
              | Action.Migrate { vm; src; dst } ->
                Obs.instant ~cat:"planner"
                  ~args:
                    [
                      ("vm", Trace.I vm); ("src", Trace.I src);
                      ("dst", Trace.I dst);
                      ("cycle_len", Trace.I (List.length cycle));
                    ]
                  "planner.bypass"
              | Action.Run _ | Action.Stop _ | Action.Suspend _
              | Action.Resume _ | Action.Suspend_ram _
              | Action.Resume_ram _ -> ());
              Metrics.incr (Lazy.force m_bypass);
              Metrics.incr (Lazy.force m_pools);
              Metrics.incr (Lazy.force m_actions)
            end;
            [ bypass ]
          | None -> (
            (* no pivot node has room: break the cycle through the disk
               instead — suspend the smallest VM of the cycle (always
               feasible), it will be resumed at its destination once the
               cycle has unwound. This is the capability the paper's
               related-work section credits to suspend/resume: handling
               the situations migration-only managers cannot. *)
            match
              List.sort
                (fun (vm1, _, _) (vm2, _, _) ->
                  Int.compare
                    (Vm.memory_mb (Configuration.vm config vm1))
                    (Vm.memory_mb (Configuration.vm config vm2)))
                cycle
            with
            | [] -> stuck "empty migration cycle"
            | (vm, src, _) :: _ ->
              Log.debug (fun m ->
                  m "planner: migration cycle with no pivot, breaking \
                     through the disk (suspend VM %d on node %d)" vm src);
              let pool = disk_break groups remaining vm src in
              if !Obs.enabled then begin
                Obs.instant ~cat:"planner"
                  ~args:
                    [
                      ("vm", Trace.I vm); ("src", Trace.I src);
                      ("cycle_len", Trace.I (List.length cycle));
                    ]
                  "planner.cycle_break";
                Metrics.incr (Lazy.force m_cycle_breaks);
                Metrics.incr (Lazy.force m_pools);
                Metrics.add (Lazy.force m_actions) (List.length pool)
              end;
              pool)))
    in
    let config' = Action.apply_all config pool in
    Configuration.shift_free free demand config config';
    Some (in_pool_order groups config pool, config')

let build ?vjobs ~current ~target ~demand () =
  Obs.span ~cat:"planner" ~name:"planner.build" @@ fun () ->
  let target = Rgraph.normalize_sleeping ~current target in
  let groups =
    match vjobs with
    | None -> Ungrouped
    | Some vjobs -> groups ~current ~target vjobs
  in
  let free = Configuration.free_view current demand in
  let rec loop config pools iter =
    if iter > max_iterations then stuck "planner did not converge";
    match next_pool groups free ~target ~demand config with
    | None -> List.rev pools
    | Some (pool, config') -> loop config' (pool :: pools) (iter + 1)
  in
  Plan.make (loop current [] 0)

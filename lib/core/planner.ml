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
   4. repeat until the intermediate configuration equals the target. *)

module Obs = Entropy_obs.Obs
module Trace = Entropy_obs.Trace
module Metrics = Entropy_obs.Metrics

let m_pools = lazy (Metrics.counter "planner.pools")
let m_actions = lazy (Metrics.counter "planner.actions")
let m_bypass = lazy (Metrics.counter "planner.bypass")
let m_cycle_breaks = lazy (Metrics.counter "planner.cycle_breaks")

exception Stuck of string

let stuck fmt = Fmt.kstr (fun s -> raise (Stuck s)) fmt

(* Select a maximal set of actions simultaneously feasible from
   [config]: claims are accounted against a copy of the pool-start free
   resources [view], so resources freed by actions of this same pool
   are not reused. *)
let select_pool (view : Configuration.free) config demand actions =
  let free =
    { Configuration.cpu = Array.copy view.cpu; mem = Array.copy view.mem }
  in
  List.partition
    (fun a ->
      match Action.claim config demand a with
      | None -> true (* suspend/stop: always feasible *)
      | Some (dst, cpu, mem) ->
        let ok = free.cpu.(dst) >= cpu && free.mem.(dst) >= mem in
        if ok then begin
          free.cpu.(dst) <- free.cpu.(dst) - cpu;
          free.mem.(dst) <- free.mem.(dst) - mem
        end;
        ok)
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

(* -- main loop ------------------------------------------------------------ *)

let max_iterations = 10_000

(* One pool from [config] towards [target], or [None] once there is
   nothing left to do. [free] is [config]'s free view on entry and the
   next configuration's on return: it is shifted by the VMs the pool
   moved, not rebuilt from every VM. *)
let next_pool free ~target ~demand config =
  let remaining = Rgraph.actions ~current:config ~target in
  if remaining = [] then None
  else
    let pool =
      match select_pool free config demand remaining with
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
                Metrics.incr (Lazy.force m_actions)
              end;
              [ Action.Suspend { vm; host = src } ])))
    in
    let config' = Action.apply_all config pool in
    Configuration.shift_free free demand config config';
    Some (pool, config')

let build ~current ~target ~demand () =
  Obs.span ~cat:"planner" ~name:"planner.build" @@ fun () ->
  let target = Rgraph.normalize_sleeping ~current target in
  let free = Configuration.free_view current demand in
  let rec loop config pools iter =
    if iter > max_iterations then stuck "planner did not converge";
    match next_pool free ~target ~demand config with
    | None -> List.rev pools
    | Some (pool, config') -> loop config' (pool :: pools) (iter + 1)
  in
  Plan.make (loop current [] 0)

let build_plan ?vjobs ~current ~target ~demand () =
  let pools = build ~current ~target ~demand () in
  match vjobs with
  | None -> pools
  | Some vjobs -> Consistency.enforce ~config:current ~demand ~vjobs pools

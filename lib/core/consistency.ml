(* Consistency of inter-dependent VMs (end of section 4.1).

   The decision module gives every VM of a vjob the same target state,
   but the plan manipulates VMs individually, which could suspend the
   VMs of one distributed application seconds or minutes apart and break
   it. Experiments (ref [10] of the paper) show the application survives
   when the suspends (resp. resumes) of a vjob happen in a short period,
   in a fixed order.

   This module alters a plan accordingly:
   - the suspends of a vjob all move to the earliest pool holding one of
     them (suspends are always feasible, so advancing them is safe);
   - the resumes of a vjob all move to the pool holding the *last* of
     them (delaying a resource claim keeps every intermediate pool
     feasible — resources only get freer);
   - inside a pool, actions are sorted by VM name so the executor can
     pipeline them deterministically (one start per second). *)

let pool_index_of pools pred =
  let found = ref [] in
  Array.iteri
    (fun i pool -> if List.exists pred pool then found := i :: !found)
    pools;
  !found (* descending order *)

let move_actions pools pred ~to_pool =
  let moved = ref [] in
  Array.iteri
    (fun i pool ->
      if i <> to_pool then begin
        let mine, rest = List.partition pred pool in
        moved := !moved @ mine;
        pools.(i) <- rest
      end)
    pools;
  pools.(to_pool) <- pools.(to_pool) @ !moved

(* -- cycle-break re-validation (ROADMAP open item 4) ---------------------- *)

(* Whether [pools] hold a suspend followed, in a later pool, by a
   cross-node resume of the same VM from the suspend's host: the only
   pair [revalidate_cycle_breaks] can rewrite. *)
let has_detour pools =
  (* (vm, src) of the cross-node resumes in the pools after this one *)
  let later = Hashtbl.create 16 in
  List.exists
    (fun pool ->
      List.exists
        (function
          | Action.Suspend { vm; host } -> Hashtbl.mem later (vm, host)
          | _ -> false)
        pool
      || begin
           List.iter
             (function
               | Action.Resume { vm; src; dst } when dst <> src ->
                 Hashtbl.replace later (vm, src) ()
               | _ -> ())
             pool;
           false
         end)
    (List.rev pools)

(* A disk-route cycle break materialises as a Suspend at pool [i] paired
   with a Resume of the same VM at a later pool [j]: the suspend stood in
   for a migration that was infeasible when the planner reached it. The
   regrouping above can move a same-vjob resume to a later pool, leaving
   the migration's destination emptier at pool [i] — the direct migration
   becomes feasible there and the verifier (rightly) treats the detour as
   an unjustified extra hop. Drop it: replace the suspend with the direct
   migration and delete the paired resume, keeping the substitution only
   when the whole plan still validates (sibling claims in pool [i] or in
   the pools between [i] and [j] could otherwise overflow). *)
let revalidate_cycle_breaks ~config ~demand plan =
  let target =
    if not (has_detour (Plan.pools plan)) then None
    else
      try Some (Action.apply_all config (List.concat (Plan.pools plan)))
      with Action.Invalid _ -> None
  in
  match target with
  | None -> plan
  | Some target ->
    let valid p = Plan.validate ~current:config ~target ~demand p = [] in
    let rec fix plan budget =
      if budget <= 0 then plan
      else
        let pools = Array.of_list (Plan.pools plan) in
        let n = Array.length pools in
        let starts = Array.make n config in
        let c = ref config in
        Array.iteri
          (fun i pool ->
            starts.(i) <- !c;
            c := Action.apply_all !c pool)
          pools;
        (* first detour whose direct migration fits at its pool start *)
        let detour = ref None in
        for i = n - 1 downto 0 do
          List.iter
            (function
              | Action.Suspend { vm; host } ->
                for j = i + 1 to n - 1 do
                  List.iter
                    (function
                      | Action.Resume { vm = vm'; src; dst }
                        when vm' = vm && src = host && dst <> host ->
                        let direct = Action.Migrate { vm; src = host; dst } in
                        if Action.feasible starts.(i) demand direct then
                          detour := Some (i, j, vm, direct)
                      | _ -> ())
                    pools.(j)
                done
              | _ -> ())
            pools.(i)
        done;
        (match !detour with
        | None -> plan
        | Some (i, j, vm, direct) ->
          let without_pair keep_direct =
            let pools' = Array.copy pools in
            pools'.(i) <-
              List.concat_map
                (function
                  | Action.Suspend { vm = v; _ } when v = vm ->
                    if keep_direct then [ direct ] else []
                  | a -> [ a ])
                pools.(i);
            pools'.(j) <-
              List.filter
                (function
                  | Action.Resume { vm = v; _ } -> v <> vm
                  | _ -> true)
                pools'.(j);
            pools'
          in
          (* in-place substitution first (fewer pools), then the claim-safe
             variant that gives the migration its own pool before [i] *)
          let in_place = Plan.make (Array.to_list (without_pair true)) in
          let own_pool =
            let pools' = Array.to_list (without_pair false) in
            let rec insert k = function
              | rest when k = 0 -> [ direct ] :: rest
              | p :: rest -> p :: insert (k - 1) rest
              | [] -> [ [ direct ] ]
            in
            Plan.make (insert i pools')
          in
          if valid in_place then fix in_place (budget - 1)
          else if valid own_pool then fix own_pool (budget - 1)
          else plan)
    in
    fix plan (Plan.action_count plan)

let enforce ~config ~demand ~vjobs plan =
  let pools = Array.of_list (Plan.pools plan) in
  if Array.length pools = 0 then plan
  else begin
    List.iter
      (fun vjob ->
        let vms = Vjob.vms vjob in
        let is_suspend = function
          | Action.Suspend { vm; _ } | Action.Suspend_ram { vm; _ } ->
            List.mem vm vms
          | _ -> false
        in
        let is_resume = function
          | Action.Resume { vm; _ } | Action.Resume_ram { vm; _ } ->
            List.mem vm vms
          | _ -> false
        in
        (match pool_index_of pools is_suspend with
        | [] -> ()
        | indices ->
          let earliest = List.fold_left min max_int indices in
          move_actions pools is_suspend ~to_pool:earliest);
        match pool_index_of pools is_resume with
        | [] -> ()
        | indices ->
          let latest = List.fold_left max (-1) indices in
          move_actions pools is_resume ~to_pool:latest)
      vjobs;
    (* deterministic in-pool order: sort by the VM's name, then id *)
    let by_vm_name a b =
      let va = Configuration.vm config (Action.vm a) in
      let vb = Configuration.vm config (Action.vm b) in
      match String.compare (Vm.name va) (Vm.name vb) with
      | 0 -> Int.compare (Vm.id va) (Vm.id vb)
      | c -> c
    in
    Array.iteri (fun i pool -> pools.(i) <- List.sort by_vm_name pool) pools;
    revalidate_cycle_breaks ~config ~demand (Plan.make (Array.to_list pools))
  end

(* Suspends and resumes of one vjob that ended up in the same pool: used
   by tests and by the executor to know what to pipeline. *)
let grouped_in_same_pool plan vjob kind =
  let vms = Vjob.vms vjob in
  let matches = function
    | (Action.Suspend { vm; _ } | Action.Suspend_ram { vm; _ })
      when kind = `Suspend -> List.mem vm vms
    | (Action.Resume { vm; _ } | Action.Resume_ram { vm; _ })
      when kind = `Resume -> List.mem vm vms
    | _ -> false
  in
  let pools_with =
    List.filteri
      (fun _ pool -> List.exists matches pool)
      (Plan.pools plan)
  in
  List.length pools_with <= 1

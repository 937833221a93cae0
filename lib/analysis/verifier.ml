(* Independent plan verifier.

   The optimiser and planner *construct* plans; this module re-checks
   what they emitted without trusting any of their intermediate
   reasoning, in the spirit of certifying the feasibility of an
   allocation rather than the solver that produced it. A plan is
   replayed symbolically, pool by pool, against the source
   configuration, and every paper-level invariant is re-established
   from first principles:

   - mid-pool capacity: the claims of a pool's parallel actions are
     accounted against the pool-start free resources (resources freed
     inside a pool cannot serve claims of the same pool), per resource;
   - life-cycle (Figure 2): each action's transition must be legal from
     the acted VM's current life-cycle state;
   - exact applicability: each action must find its VM in the precise
     state it expects (via [Action.apply]);
   - reconfiguration-graph soundness: each action either matches the
     pending action the reconfiguration graph derives for its VM, or is
     a recognised cycle-breaking step (a bypass migration to a pivot
     node, or a suspend standing in for a blocked migration);
   - no worsened overload: at every pool boundary, no node may exceed
     its capacity by more than it already did in the source
     configuration (so a plan starting from a viable configuration
     keeps every intermediate configuration viable);
   - vjob grouping: all suspends (resp. resumes) of a vjob must sit in
     a single pool (the consistency requirement of section 4.1);
   - termination: the final configuration must be exactly the target;
   - cost: the plan cost is re-derived from the Table 1 model and the
     section 4.2 sequencing rule, independently of [Cost], and compared
     against [Plan.cost].

   This is the one statement of a valid plan. The model checker
   ([Entropy_check.Model]) states what a valid execution of one is,
   and holds the executor's journals to it. *)

open Entropy_core

type resource = Cpu | Mem

let resource_to_string = function Cpu -> "cpu" | Mem -> "mem"

type finding =
  | Claim_overflow of {
      pool : int;
      action : Action.t;
      node : Node.id;
      resource : resource;
      needed : int;
      available : int;
    }
  | Lifecycle_violation of {
      pool : int;
      action : Action.t;
      state : Lifecycle.state;
    }
  | Invalid_application of { pool : int; action : Action.t; reason : string }
  | Duplicate_vm_action of { pool : int; action : Action.t }
  | Off_graph_action of { pool : int; action : Action.t }
  | Unreachable_target of { pool : int; vm : Vm.id; reason : string }
  | Worsened_overload of {
      pool : int;
      node : Node.id;
      resource : resource;
      load : int;
      capacity : int;
      initial_excess : int;
    }
  | Vjob_split of {
      vjob : string;
      kind : [ `Suspend | `Resume ];
      pools : int list;
    }
  | Wrong_final_state of {
      vm : Vm.id;
      expected : Configuration.vm_state;
      got : Configuration.vm_state;
    }
  | Cost_mismatch of { reported : int; derived : int }
  | Resume_divergence of {
      vm : Vm.id;
      frozen : bool;
      expected : Configuration.vm_state;
      got : Configuration.vm_state;
    }

let pp_finding ppf = function
  | Claim_overflow { pool; action; node; resource; needed; available } ->
    Fmt.pf ppf "pool %d: %a claims %d %s on N%d, only %d free at pool start"
      pool Action.pp action needed
      (resource_to_string resource)
      node available
  | Lifecycle_violation { pool; action; state } ->
    Fmt.pf ppf "pool %d: %a illegal from life-cycle state %a (Fig. 2)" pool
      Action.pp action Lifecycle.pp_state state
  | Invalid_application { pool; action; reason } ->
    Fmt.pf ppf "pool %d: %a cannot apply (%s)" pool Action.pp action reason
  | Duplicate_vm_action { pool; action } ->
    Fmt.pf ppf "pool %d: %a is the second action on its VM in this pool"
      pool Action.pp action
  | Off_graph_action { pool; action } ->
    Fmt.pf ppf
      "pool %d: %a matches no pending reconfiguration-graph action and is \
       no recognised cycle break"
      pool Action.pp action
  | Unreachable_target { pool; vm; reason } ->
    Fmt.pf ppf "pool %d: VM %d's target is unreachable (%s)" pool vm reason
  | Worsened_overload { pool; node; resource; load; capacity; initial_excess }
    ->
    Fmt.pf ppf
      "after pool %d: N%d %s load %d exceeds capacity %d (initial excess \
       was %d)"
      pool node
      (resource_to_string resource)
      load capacity initial_excess
  | Vjob_split { vjob; kind; pools } ->
    Fmt.pf ppf "vjob %s: %ss split across pools %a" vjob
      (match kind with `Suspend -> "suspend" | `Resume -> "resume")
      Fmt.(list ~sep:comma int)
      pools
  | Wrong_final_state { vm; expected; got } ->
    Fmt.pf ppf "VM %d finishes %a, expected %a" vm Configuration.pp_vm_state
      got Configuration.pp_vm_state expected
  | Cost_mismatch { reported; derived } ->
    Fmt.pf ppf "Plan.cost reports %d, independent re-derivation gives %d"
      reported derived
  | Resume_divergence { vm; frozen; expected; got } ->
    Fmt.pf ppf
      "resume: %s VM %d ends %a, %s expects %a"
      (if frozen then "frozen" else "live")
      vm Configuration.pp_vm_state got
      (if frozen then "the observation" else "the original plan")
      Configuration.pp_vm_state expected

(* -- independent cost re-derivation --------------------------------------- *)

(* Table 1, re-stated from the paper rather than imported from [Cost]:
   migrations and suspends manipulate the VM's memory once, a local
   resume once, a remote resume twice (the image moves first); run,
   stop and the RAM variants are memory-independent (cost 0). *)
let table1_action_cost config a =
  let mem = Vm.memory_mb (Configuration.vm config (Action.vm a)) in
  match a with
  | Action.Migrate _ | Action.Suspend _ -> mem
  | Action.Resume { src; dst; _ } -> if src = dst then mem else 2 * mem
  | Action.Run _ | Action.Stop _ | Action.Suspend_ram _ | Action.Resume_ram _
    -> 0

(* Section 4.2: an action pays the duration of every pool executed
   before its own (a pool lasts as long as its longest action) plus its
   own cost; the plan cost sums over all actions. *)
let rederive_cost config pools =
  let elapsed = ref 0 and total = ref 0 in
  List.iter
    (fun pool ->
      let longest = ref 0 in
      List.iter
        (fun a ->
          let c = table1_action_cost config a in
          total := !total + !elapsed + c;
          if c > !longest then longest := c)
        pool;
      elapsed := !elapsed + !longest)
    pools;
  !total

(* -- replay ---------------------------------------------------------------- *)

(* Whether [a] is a sound stand-in for the graph's pending action
   [pending] on the same VM: a bypass migration moves the VM from its
   pending source to a pivot node instead of the final destination; a
   suspend on the pending source breaks a migration cycle through the
   disk. Both leave a pending action that a later pool must consume,
   and both are only justified when the direct action is infeasible at
   pool start — otherwise the detour is an unsound extra hop. *)
let sound_cycle_break config demand a pending =
  match (a, pending) with
  | ( Action.Migrate { vm; src; dst },
      Some (Action.Migrate { vm = vm'; src = src'; dst = dst' } as direct) )
    ->
    vm = vm' && src = src' && dst <> dst'
    && not (Action.feasible config demand direct)
  | ( Action.Suspend { vm; host },
      Some (Action.Migrate { vm = vm'; src; _ } as direct) ) ->
    vm = vm' && host = src && not (Action.feasible config demand direct)
  | _ -> false

let check_vjob_grouping note pools vjobs =
  let pool_arr = Array.of_list pools in
  List.iter
    (fun vjob ->
      let vms = Vjob.vms vjob in
      let pools_matching pred =
        let found = ref [] in
        Array.iteri
          (fun i pool -> if List.exists pred pool then found := i :: !found)
          pool_arr;
        List.rev !found
      in
      let check kind pred =
        match pools_matching pred with
        | [] | [ _ ] -> ()
        | pools -> note (Vjob_split { vjob = Vjob.name vjob; kind; pools })
      in
      check `Suspend (function
        | Action.Suspend { vm; _ } | Action.Suspend_ram { vm; _ } ->
          List.mem vm vms
        | _ -> false);
      check `Resume (function
        | Action.Resume { vm; _ } | Action.Resume_ram { vm; _ } ->
          List.mem vm vms
        | _ -> false))
    vjobs

let verify ?(vjobs = []) ~current ~target ~demand plan =
  let findings = ref [] in
  let note f = findings := f :: !findings in
  let target = Rgraph.normalize_sleeping ~current target in
  let n = Configuration.node_count current in
  let init_cpu, init_mem = Configuration.loads current demand in
  let cap_cpu =
    Array.init n (fun i -> Node.cpu_capacity (Configuration.node current i))
  in
  let cap_mem =
    Array.init n (fun i -> Node.memory_mb (Configuration.node current i))
  in
  let replay_pool config pool_idx pool_actions =
    let claimed_cpu = Array.make n 0 and claimed_mem = Array.make n 0 in
    let seen_vms = Hashtbl.create 16 in
    List.iter
      (fun a ->
        let vm = Action.vm a in
        (* one action per VM per pool: two parallel actions on the same
           VM can never both find it in their expected state *)
        if Hashtbl.mem seen_vms vm then
          note (Duplicate_vm_action { pool = pool_idx; action = a })
        else Hashtbl.replace seen_vms vm ();
        (* Figure 2 life-cycle precondition *)
        let lstate = Configuration.lifecycle config vm in
        if not (Lifecycle.can lstate (Action.transition a)) then
          note
            (Lifecycle_violation { pool = pool_idx; action = a; state = lstate });
        (* reconfiguration-graph soundness, evaluated at pool start *)
        (match Rgraph.action_for ~current:config ~target vm with
        | pending ->
          let on_graph =
            match pending with Some p -> Action.equal a p | None -> false
          in
          if not (on_graph || sound_cycle_break config demand a pending) then
            note (Off_graph_action { pool = pool_idx; action = a })
        | exception Rgraph.Unreachable reason ->
          note (Unreachable_target { pool = pool_idx; vm; reason }));
        (* simultaneous feasibility against pool-start free resources *)
        match Action.claim config demand a with
        | None -> ()
        | Some (dst, cpu, mem) ->
          if dst < 0 || dst >= n then
            note
              (Invalid_application
                 {
                   pool = pool_idx;
                   action = a;
                   reason = Printf.sprintf "unknown node %d" dst;
                 })
          else begin
            let free_cpu =
              Configuration.free_cpu config demand dst - claimed_cpu.(dst)
            in
            let free_mem =
              Configuration.free_mem config dst - claimed_mem.(dst)
            in
            if cpu > free_cpu then
              note
                (Claim_overflow
                   {
                     pool = pool_idx;
                     action = a;
                     node = dst;
                     resource = Cpu;
                     needed = cpu;
                     available = free_cpu;
                   });
            if mem > free_mem then
              note
                (Claim_overflow
                   {
                     pool = pool_idx;
                     action = a;
                     node = dst;
                     resource = Mem;
                     needed = mem;
                     available = free_mem;
                   });
            if cpu <= free_cpu && mem <= free_mem then begin
              claimed_cpu.(dst) <- claimed_cpu.(dst) + cpu;
              claimed_mem.(dst) <- claimed_mem.(dst) + mem
            end
          end)
      pool_actions;
    (* sequential application, tolerating invalid actions (reported) *)
    let config' =
      List.fold_left
        (fun cfg a ->
          try Action.apply cfg a
          with Action.Invalid reason ->
            note (Invalid_application { pool = pool_idx; action = a; reason });
            cfg)
        config pool_actions
    in
    (* pool-boundary loads: no node may be worse off than it started *)
    let cpu_load, mem_load = Configuration.loads config' demand in
    for node = 0 to n - 1 do
      let check resource load cap init_load =
        let initial_excess = max 0 (init_load - cap) in
        if load - cap > initial_excess then
          note
            (Worsened_overload
               {
                 pool = pool_idx;
                 node;
                 resource;
                 load;
                 capacity = cap;
                 initial_excess;
               })
      in
      check Cpu cpu_load.(node) cap_cpu.(node) init_cpu.(node);
      check Mem mem_load.(node) cap_mem.(node) init_mem.(node)
    done;
    config'
  in
  let pools = Plan.pools plan in
  let final =
    List.fold_left
      (fun (config, idx) pool -> (replay_pool config idx pool, idx + 1))
      (current, 0) pools
    |> fst
  in
  for vm = 0 to Configuration.vm_count target - 1 do
    let expected = Configuration.state target vm in
    let got = Configuration.state final vm in
    if not (Configuration.equal_vm_state expected got) then
      note (Wrong_final_state { vm; expected; got })
  done;
  check_vjob_grouping note pools vjobs;
  let reported = Plan.cost current plan in
  let derived = rederive_cost current pools in
  if reported <> derived then note (Cost_mismatch { reported; derived });
  List.rev !findings

let is_clean ?vjobs ~current ~target ~demand plan =
  verify ?vjobs ~current ~target ~demand plan = []

let cost_cross_check current plan =
  (Plan.cost current plan, rederive_cost current (Plan.pools plan))

(* -- crash-resume equivalence ---------------------------------------------- *)

(* Where the original plan would have left every VM, replayed action by
   action from the journaled source. Invalid applications are skipped
   (tolerating odd journals) — the per-VM end state is what matters
   here, full applicability is the main verifier's job. *)
let original_final ~source plan =
  List.fold_left
    (fun config a ->
      try Action.apply config a with Action.Invalid _ -> config)
    source (Plan.actions plan)

let verify_resume ?vjobs ~source ~original ~observed ~target ~frozen ~demand
    plan =
  let base = verify ?vjobs ~current:observed ~target ~demand plan in
  let final = original_final ~source original in
  let divergences =
    List.init (Configuration.vm_count observed) Fun.id
    |> List.filter_map (fun vm ->
           let is_frozen = List.mem vm frozen in
           (* a frozen VM must stay exactly where it was observed; a
              live VM must end where the original plan would have put
              it — together: resume plan + executed prefix is
              semantically the original switch *)
           let expected =
             if is_frozen then Configuration.state observed vm
             else Configuration.state final vm
           in
           let got = Configuration.state target vm in
           if Configuration.equal_vm_state expected got then None
           else
             Some (Resume_divergence { vm; frozen = is_frozen; expected; got }))
  in
  base @ divergences

let pp_report ppf findings =
  match findings with
  | [] -> Fmt.pf ppf "plan verified: no findings"
  | fs ->
    Fmt.pf ppf "@[<v>%d finding(s):@,%a@]" (List.length fs)
      (Fmt.list ~sep:Fmt.cut (fun ppf f -> Fmt.pf ppf "- %a" pp_finding f))
      fs

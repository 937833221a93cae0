(* Tests for the section 7 extensions: placement side-constraints
   maintained during the optimisation, and the suspend-to-RAM sleeping
   state. *)

open Entropy_core
module Verifier = Entropy_analysis.Verifier

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ram_suspend_count plan =
  Plan.count_kind plan (function Action.Suspend_ram _ -> true | _ -> false)

let mk_nodes ?(cpu = 200) ?(mem = 3584) n =
  Array.init n (fun i ->
      Node.make ~id:i ~name:(Printf.sprintf "N%d" i) ~cpu_capacity:cpu
        ~memory_mb:mem)

let mk_vms specs =
  Array.of_list
    (List.mapi
       (fun i m -> Vm.make ~id:i ~name:(Printf.sprintf "vm%d" i) ~memory_mb:m)
       specs)

(* -- placement rules: checking --------------------------------------------- *)

let spread_config () =
  let nodes = mk_nodes 3 in
  let vms = mk_vms [ 512; 512; 512 ] in
  Configuration.make ~nodes ~vms

let test_rules_spread_check () =
  let config = spread_config () in
  let rule = Placement_rules.Spread [ 0; 1 ] in
  (* not running: trivially satisfied *)
  check_bool "waiting ok" true (Placement_rules.check config rule);
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 0) in
  check_bool "co-located violates" false (Placement_rules.check config rule);
  let config = Configuration.set_state config 1 (Configuration.Running 1) in
  check_bool "distinct hosts ok" true (Placement_rules.check config rule)

let test_rules_gather_check () =
  let config = spread_config () in
  let rule = Placement_rules.Gather [ 0; 1 ] in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  check_bool "single member ok" true (Placement_rules.check config rule);
  let config = Configuration.set_state config 1 (Configuration.Running 1) in
  check_bool "split violates" false (Placement_rules.check config rule);
  let config = Configuration.set_state config 1 (Configuration.Running 0) in
  check_bool "together ok" true (Placement_rules.check config rule)

let test_rules_ban_fence_check () =
  let config = spread_config () in
  let config = Configuration.set_state config 0 (Configuration.Running 2) in
  check_bool "ban violated" false
    (Placement_rules.check config (Placement_rules.Ban ([ 0 ], [ 2 ])));
  check_bool "fence violated" false
    (Placement_rules.check config (Placement_rules.Fence ([ 0 ], [ 0; 1 ])));
  check_bool "fence ok" true
    (Placement_rules.check config (Placement_rules.Fence ([ 0 ], [ 2 ])))

let test_rules_allowed_nodes () =
  let rules =
    [ Placement_rules.Ban ([ 0 ], [ 1 ]); Placement_rules.Fence ([ 0 ], [ 1; 2 ]) ]
  in
  (match Placement_rules.allowed_nodes rules ~node_count:4 0 with
  | Some [ 2 ] -> ()
  | Some other ->
    Alcotest.failf "expected [2], got [%s]"
      (String.concat ";" (List.map string_of_int other))
  | None -> Alcotest.fail "expected a restriction");
  check_bool "unconstrained VM" true
    (Placement_rules.allowed_nodes rules ~node_count:4 1 = None)

(* -- placement rules: FFD -------------------------------------------------- *)

let test_ffd_respects_spread () =
  let nodes = mk_nodes 3 in
  let vms = mk_vms [ 512; 512; 512 ] in
  let config = Configuration.make ~nodes ~vms in
  let demand = Demand.uniform ~vm_count:3 10 in
  let rules = [ Placement_rules.Spread [ 0; 1; 2 ] ] in
  match Ffd.place ~rules config demand [ 0; 1; 2 ] with
  | None -> Alcotest.fail "expected placement"
  | Some c ->
    check_bool "spread satisfied" true (Placement_rules.check_all c rules)

let test_ffd_respects_gather () =
  let nodes = mk_nodes 3 in
  let vms = mk_vms [ 512; 512 ] in
  let config = Configuration.make ~nodes ~vms in
  let demand = Demand.uniform ~vm_count:2 10 in
  let rules = [ Placement_rules.Gather [ 0; 1 ] ] in
  match Ffd.place ~rules config demand [ 0; 1 ] with
  | None -> Alcotest.fail "expected placement"
  | Some c ->
    check_bool "gather satisfied" true (Placement_rules.check_all c rules)

let test_ffd_respects_ban () =
  let nodes = mk_nodes 2 in
  let vms = mk_vms [ 512 ] in
  let config = Configuration.make ~nodes ~vms in
  let demand = Demand.uniform ~vm_count:1 10 in
  let rules = [ Placement_rules.Ban ([ 0 ], [ 0 ]) ] in
  match Ffd.place ~rules config demand [ 0 ] with
  | None -> Alcotest.fail "expected placement"
  | Some c -> check_int "on node 1" 1 (Option.get (Configuration.host c 0))

let test_ffd_infeasible_rules () =
  (* spread over more VMs than nodes *)
  let nodes = mk_nodes 2 in
  let vms = mk_vms [ 256; 256; 256 ] in
  let config = Configuration.make ~nodes ~vms in
  let demand = Demand.uniform ~vm_count:3 10 in
  let rules = [ Placement_rules.Spread [ 0; 1; 2 ] ] in
  check_bool "cannot place" false (Ffd.fits ~rules config demand [ 0; 1; 2 ])

let test_ffd_spread_accounts_existing () =
  (* VM0 already runs on node0: a spread partner must avoid node0 *)
  let nodes = mk_nodes 2 in
  let vms = mk_vms [ 512; 512 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let demand = Demand.uniform ~vm_count:2 10 in
  let rules = [ Placement_rules.Spread [ 0; 1 ] ] in
  match Ffd.place ~rules config demand [ 1 ] with
  | None -> Alcotest.fail "expected placement"
  | Some c -> check_int "avoids node0" 1 (Option.get (Configuration.host c 1))

(* -- placement rules: optimizer -------------------------------------------- *)

let test_optimizer_maintains_spread () =
  (* without the rule the cheapest placement is "stay put" (both on
     node0); the spread rule forces a move despite its cost *)
  let nodes = mk_nodes 3 in
  let vms = mk_vms [ 1024; 1024 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 0) in
  let demand = Demand.uniform ~vm_count:2 40 in
  let rules = [ Placement_rules.Spread [ 0; 1 ] ] in
  let result =
    Optimizer.optimize ~rules ~current:config ~demand ~placed:[ 0; 1 ]
      ~target_base:config ~fallback:config ()
  in
  check_bool "rules satisfied" true result.Optimizer.rules_satisfied;
  check_bool "spread holds" true
    (Placement_rules.check_all result.Optimizer.target rules);
  check_int "one migration" 1 (Plan.migration_count result.Optimizer.plan);
  check_int "cost is one move" 1024 result.Optimizer.cost

let test_optimizer_rule_beats_cheaper_violation () =
  (* the fallback violates the rule: the optimiser must prefer its own
     rule-satisfying solution even though the fallback is cheaper *)
  let nodes = mk_nodes 3 in
  let vms = mk_vms [ 1024; 1024 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 0) in
  let demand = Demand.uniform ~vm_count:2 40 in
  let rules = [ Placement_rules.Spread [ 0; 1 ] ] in
  let result =
    Optimizer.optimize ~rules ~current:config ~demand ~placed:[ 0; 1 ]
      ~target_base:config ~fallback:config ()
  in
  (* the fallback (stay put, cost 0) violates; result must not *)
  check_bool "rule-satisfying result" true result.Optimizer.rules_satisfied;
  check_bool "pays for compliance" true (result.Optimizer.cost > 0)

let test_optimizer_maintains_fence () =
  let nodes = mk_nodes 3 in
  let vms = mk_vms [ 1024 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let demand = Demand.uniform ~vm_count:1 40 in
  let rules = [ Placement_rules.Fence ([ 0 ], [ 2 ]) ] in
  let result =
    Optimizer.optimize ~rules ~current:config ~demand ~placed:[ 0 ]
      ~target_base:config ~fallback:config ()
  in
  check_int "forced to node 2" 2
    (Option.get (Configuration.host result.Optimizer.target 0));
  check_bool "rules satisfied" true result.Optimizer.rules_satisfied

let test_optimizer_maintains_gather () =
  let nodes = mk_nodes 3 in
  let vms = mk_vms [ 512; 512 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 1) in
  let demand = Demand.uniform ~vm_count:2 40 in
  let rules = [ Placement_rules.Gather [ 0; 1 ] ] in
  let result =
    Optimizer.optimize ~rules ~current:config ~demand ~placed:[ 0; 1 ]
      ~target_base:config ~fallback:config ()
  in
  check_bool "gather holds" true
    (Placement_rules.check_all result.Optimizer.target rules);
  (* exactly one of the two moves: cost one migration *)
  check_int "one migration" 1 (Plan.migration_count result.Optimizer.plan)

let test_decision_with_rules_end_to_end () =
  let nodes = mk_nodes 3 in
  let vms = mk_vms [ 512; 512 ] in
  let vjob = Vjob.make ~id:0 ~name:"ha" ~vms:[ 0; 1 ] () in
  let config = Configuration.make ~nodes ~vms in
  let demand = Demand.uniform ~vm_count:2 40 in
  let rules = [ Placement_rules.Spread [ 0; 1 ] ] in
  let decision = Decision.consolidation ~cp_timeout:0.5 ~rules () in
  let obs = { Decision.config; demand; queue = [ vjob ]; finished = [] } in
  let result = decision.Decision.decide obs in
  check_bool "runs" true
    (Configuration.vjob_state result.Optimizer.target vjob
    = Some Lifecycle.Running);
  check_bool "spread" true
    (Placement_rules.check_all result.Optimizer.target rules)

(* -- quota rule -------------------------------------------------------------- *)

let test_quota_check () =
  let nodes = mk_nodes 2 in
  let vms = mk_vms [ 256; 256; 256 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 0) in
  let rule = Placement_rules.Quota ([ 0 ], 2) in
  check_bool "at quota ok" true (Placement_rules.check config rule);
  let config = Configuration.set_state config 2 (Configuration.Running 0) in
  check_bool "over quota" false (Placement_rules.check config rule)

let test_quota_ffd () =
  let nodes = mk_nodes 2 in
  let vms = mk_vms [ 256; 256; 256 ] in
  let config = Configuration.make ~nodes ~vms in
  let demand = Demand.uniform ~vm_count:3 10 in
  let rules = [ Placement_rules.Quota ([ 0 ], 2) ] in
  match Ffd.place ~rules config demand [ 0; 1; 2 ] with
  | None -> Alcotest.fail "expected placement"
  | Some c ->
    check_bool "quota holds" true (Placement_rules.check_all c rules);
    check_int "two on node0" 2 (List.length (Configuration.running_on c 0));
    check_int "one on node1" 1 (List.length (Configuration.running_on c 1))

let test_quota_optimizer () =
  (* three VMs currently on node0, quota 1: two must move *)
  let nodes = mk_nodes 3 in
  let vms = mk_vms [ 512; 512; 512 ] in
  let config = Configuration.make ~nodes ~vms in
  let config =
    List.fold_left
      (fun c vm -> Configuration.set_state c vm (Configuration.Running 0))
      config [ 0; 1; 2 ]
  in
  let demand = Demand.uniform ~vm_count:3 10 in
  let rules = [ Placement_rules.Quota ([ 0 ], 1) ] in
  let result =
    Optimizer.optimize ~rules ~current:config ~demand ~placed:[ 0; 1; 2 ]
      ~target_base:config ~fallback:config ()
  in
  check_bool "quota holds" true
    (Placement_rules.check_all result.Optimizer.target rules);
  check_int "two migrations" 2 (Plan.migration_count result.Optimizer.plan)

(* -- suspend-to-RAM --------------------------------------------------------- *)

let test_ram_state_consumes_memory_not_cpu () =
  let nodes = mk_nodes ~cpu:100 ~mem:2048 1 in
  let vms = mk_vms [ 1536 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Sleeping_ram 0) in
  let demand = Demand.uniform ~vm_count:1 100 in
  check_int "memory held" 1536 (Configuration.mem_load config 0);
  check_int "no cpu" 0 (Configuration.cpu_load config demand 0);
  check_bool "viable" true (Configuration.is_viable config demand);
  check_bool "lifecycle sleeping" true
    (Configuration.lifecycle config 0 = Lifecycle.Sleeping)

let test_ram_actions_apply () =
  let nodes = mk_nodes 2 in
  let vms = mk_vms [ 1024 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Action.apply config (Action.Run { vm = 0; dst = 0 }) in
  let config = Action.apply config (Action.Suspend_ram { vm = 0; host = 0 }) in
  check_bool "ram-suspended" true
    (Configuration.state config 0 = Configuration.Sleeping_ram 0);
  let config = Action.apply config (Action.Resume_ram { vm = 0; host = 0 }) in
  check_bool "running again" true
    (Configuration.state config 0 = Configuration.Running 0)

let test_ram_resume_claims_cpu_only () =
  let nodes = mk_nodes ~cpu:100 ~mem:2048 1 in
  let vms = mk_vms [ 2048; 1 ] in
  (* N0's memory is entirely held by the RAM image: a disk resume of a
     2048 MB VM would not fit, the RAM resume does *)
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Sleeping_ram 0) in
  let demand = Demand.uniform ~vm_count:2 50 in
  check_bool "ram resume feasible" true
    (Action.feasible config demand (Action.Resume_ram { vm = 0; host = 0 }));
  (* the claim reports zero memory *)
  (match Action.claim config demand (Action.Resume_ram { vm = 0; host = 0 }) with
  | Some (0, 50, 0) -> ()
  | Some (n, c, m) -> Alcotest.failf "unexpected claim (%d,%d,%d)" n c m
  | None -> Alcotest.fail "expected a claim")

let test_ram_rgraph_and_planner () =
  let nodes = mk_nodes ~cpu:100 ~mem:2048 1 in
  let vms = mk_vms [ 1024 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let demand = Demand.uniform ~vm_count:1 50 in
  let target =
    Configuration.with_states config [| Configuration.Sleeping_ram 0 |]
  in
  let plan = Planner.build ~current:config ~target ~demand () in
  check_int "one ram suspend" 1 (ram_suspend_count plan);
  check_int "plan cost zero" 0 (Plan.cost config plan);
  check_bool "valid" true (Verifier.is_clean ~current:config ~target ~demand plan)

let test_ram_image_cannot_move () =
  let nodes = mk_nodes 2 in
  let vms = mk_vms [ 1024 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Sleeping_ram 0) in
  let target = Configuration.with_states config [| Configuration.Running 1 |] in
  check_bool "unreachable" true
    (try
       ignore (Rgraph.actions ~current:config ~target);
       false
     with Rgraph.Unreachable _ -> true)

let test_ram_cost_model () =
  let config =
    Configuration.make ~nodes:(mk_nodes 2) ~vms:(mk_vms [ 2048 ])
  in
  check_int "ram suspend free" 0
    (Cost.action config (Action.Suspend_ram { vm = 0; host = 0 }));
  check_int "ram resume free" 0
    (Cost.action config (Action.Resume_ram { vm = 0; host = 0 }))

let test_prefer_ram_suspends_respects_memory () =
  let nodes = mk_nodes ~cpu:200 ~mem:2048 2 in
  let vms = mk_vms [ 1024; 1536; 1536 ] in
  let current = Configuration.make ~nodes ~vms in
  let current = Configuration.set_state current 0 (Configuration.Running 0) in
  let current = Configuration.set_state current 1 (Configuration.Running 1) in
  (* target: VM0 and VM1 suspend; VM2 starts on node1 filling its memory *)
  let target =
    Configuration.with_states current
      [|
        Configuration.Sleeping 0;
        Configuration.Sleeping 1;
        Configuration.Running 1;
      |]
  in
  let target = Decision.prefer_ram_suspends ~current target in
  check_bool "vm0 kept in RAM (node0 empty)" true
    (Configuration.state target 0 = Configuration.Sleeping_ram 0);
  check_bool "vm1 stays on disk (node1 memory taken)" true
    (Configuration.state target 1 = Configuration.Sleeping 1)

let test_rjsp_resumes_ram_vjob_in_place () =
  let nodes = mk_nodes ~cpu:200 ~mem:3584 2 in
  let vms = mk_vms [ 1024; 1024 ] in
  let vjob = Vjob.make ~id:0 ~name:"j" ~vms:[ 0; 1 ] () in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Sleeping_ram 0) in
  let config = Configuration.set_state config 1 (Configuration.Sleeping_ram 1) in
  let demand = Demand.uniform ~vm_count:2 100 in
  let outcome = Rjsp.solve ~config ~demand ~queue:[ vjob ] () in
  check_bool "selected" true (Rjsp.selected outcome vjob);
  check_bool "resumed on image hosts" true
    (Configuration.state outcome.Rjsp.ffd_config 0 = Configuration.Running 0
    && Configuration.state outcome.Rjsp.ffd_config 1 = Configuration.Running 1)

let test_rjsp_ram_vjob_blocked_by_cpu () =
  (* the image host's CPU is taken: the RAM vjob cannot resume *)
  let nodes = mk_nodes ~cpu:100 ~mem:3584 1 in
  let vms = mk_vms [ 1024; 512 ] in
  let ram_vjob = Vjob.make ~id:0 ~name:"ram" ~vms:[ 0 ] ~submit_time:1. () in
  let busy_vjob = Vjob.make ~id:1 ~name:"busy" ~vms:[ 1 ] ~submit_time:0. () in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Sleeping_ram 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 0) in
  let demand = Demand.uniform ~vm_count:2 100 in
  let outcome = Rjsp.solve ~config ~demand ~queue:[ ram_vjob; busy_vjob ] () in
  check_bool "busy selected" true (Rjsp.selected outcome busy_vjob);
  check_bool "ram vjob waits" false (Rjsp.selected outcome ram_vjob)

let test_end_to_end_ram_policy () =
  (* overload: with the RAM policy, the suspended vjob's images stay in
     RAM and the final plan contains ram suspends *)
  let nodes = mk_nodes 2 in
  let vms = mk_vms [ 1024; 1024; 1024; 1024; 1024; 1024 ] in
  let vjobs =
    List.init 3 (fun j ->
        Vjob.make ~id:j ~name:(Printf.sprintf "j%d" j)
          ~vms:[ 2 * j; (2 * j) + 1 ] ~submit_time:(float_of_int j) ())
  in
  let config =
    List.fold_left
      (fun c (vm, node) ->
        Configuration.set_state c vm (Configuration.Running node))
      (Configuration.make ~nodes ~vms)
      [ (0, 0); (1, 0); (2, 1); (3, 1); (4, 0); (5, 1) ]
  in
  let demand = Demand.uniform ~vm_count:6 100 in
  let decision = Decision.consolidation ~cp_timeout:0.5 ~suspend_to_ram:true () in
  let obs = { Decision.config; demand; queue = vjobs; finished = [] } in
  let result = decision.Decision.decide obs in
  check_bool "target viable" true
    (Configuration.is_viable result.Optimizer.target demand);
  check_bool "has ram suspends" true
    (ram_suspend_count result.Optimizer.plan > 0);
  check_int "no disk suspends needed" 0
    (Plan.suspend_count result.Optimizer.plan)

(* -- schedule (timed plans) --------------------------------------------------- *)

let check_float eps = Alcotest.(check (float eps))

let test_schedule_pools_sequential () =
  let nodes = mk_nodes 3 in
  let vms = mk_vms [ 1024; 512 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let plan =
    Plan.make
      [
        [ Action.Suspend { vm = 0; host = 0 } ];
        [ Action.Run { vm = 1; dst = 0 } ];
      ]
  in
  let sched = Schedule.of_plan config plan in
  let suspend_dur = 1024. /. Schedule.durations.Schedule.suspend_mb_s in
  check_float 0.01 "makespan" (suspend_dur +. 6.) (Schedule.makespan sched);
  match Schedule.entry_for sched 1 with
  | Some e -> check_float 0.01 "pool 2 starts after pool 1" suspend_dur e.Schedule.start
  | None -> Alcotest.fail "expected entry"

let test_schedule_pipelines_suspends () =
  let nodes = mk_nodes 2 in
  let vms = mk_vms [ 512; 512 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 1) in
  let plan =
    Plan.make
      [
        [
          Action.Suspend { vm = 0; host = 0 };
          Action.Suspend { vm = 1; host = 1 };
        ];
      ]
  in
  let sched = Schedule.of_plan config plan in
  (match (Schedule.entry_for sched 0, Schedule.entry_for sched 1) with
  | Some a, Some b ->
    check_float 0.001 "1s stagger" 1. (b.Schedule.start -. a.Schedule.start)
  | _ -> Alcotest.fail "expected both entries");
  (* overlapping, not sequential *)
  let single = 512. /. Schedule.durations.Schedule.suspend_mb_s in
  check_float 0.01 "overlap" (single +. 1.) (Schedule.makespan sched)

let test_schedule_remote_resume_longer () =
  let nodes = mk_nodes 2 in
  let vms = mk_vms [ 1024 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Sleeping 0) in
  let local =
    Schedule.action_duration config (Action.Resume { vm = 0; src = 0; dst = 0 })
  in
  let remote =
    Schedule.action_duration config (Action.Resume { vm = 0; src = 0; dst = 1 })
  in
  check_bool "remote longer" true (remote > 1.8 *. local);
  check_bool "ram resume near-instant" true
    (Schedule.action_duration config (Action.Resume_ram { vm = 0; host = 0 })
    < 1.)

let test_schedule_empty_plan () =
  let config = Configuration.make ~nodes:(mk_nodes 1) ~vms:(mk_vms [ 512 ]) in
  check_float 1e-9 "empty" 0. (Schedule.makespan (Schedule.of_plan config Plan.empty))

(* -- weighted decision --------------------------------------------------------- *)

let test_weighted_overrides_fcfs () =
  (* overload: only two of three vjobs fit; the heaviest (submitted
     last) must win over FCFS order *)
  let nodes = mk_nodes 2 in
  let vms = mk_vms [ 1024; 1024; 1024; 1024; 1024; 1024 ] in
  let vjobs =
    List.init 3 (fun j ->
        Vjob.make ~id:j ~name:(Printf.sprintf "j%d" j)
          ~vms:[ 2 * j; (2 * j) + 1 ] ~submit_time:(float_of_int j) ())
  in
  let config = Configuration.make ~nodes ~vms in
  let demand = Demand.uniform ~vm_count:6 100 in
  let weight vj = if Vjob.id vj = 2 then 10 else 1 in
  let decision = Decision.weighted ~cp_timeout:0.5 ~weight () in
  let obs = { Decision.config; demand; queue = vjobs; finished = [] } in
  let result = decision.Decision.decide obs in
  let state id =
    Configuration.vjob_state result.Optimizer.target
      (List.find (fun v -> Vjob.id v = id) vjobs)
  in
  check_bool "heavy vjob admitted" true (state 2 = Some Lifecycle.Running);
  check_bool "one light vjob admitted" true (state 0 = Some Lifecycle.Running);
  check_bool "other light vjob waits" true (state 1 = Some Lifecycle.Waiting)

(* -- continuous scheduling ------------------------------------------------------ *)

(* Independent replay of a continuous schedule: at every action start,
   the combined reservations must fit every node. *)
let continuous_feasible config demand entries =
  let n = Configuration.node_count config in
  let cpu_load, mem_load = Configuration.loads config demand in
  let cap_cpu =
    Array.init n (fun i -> Node.cpu_capacity (Configuration.node config i))
  in
  let cap_mem =
    Array.init n (fun i -> Node.memory_mb (Configuration.node config i))
  in
  let frees_of a =
    let vm = Action.vm a in
    let cpu = Demand.cpu demand vm in
    let mem = Vm.memory_mb (Configuration.vm config vm) in
    match a with
    | Action.Migrate { src; dst; _ } when src <> dst -> [ (src, cpu, mem) ]
    | Action.Suspend { host; _ } | Action.Stop { host; _ } ->
      [ (host, cpu, mem) ]
    | Action.Suspend_ram { host; _ } -> [ (host, cpu, 0) ]
    | _ -> []
  in
  List.for_all
    (fun (e : Continuous.entry) ->
      let t = e.Continuous.start in
      let use_cpu = Array.copy cpu_load and use_mem = Array.copy mem_load in
      List.iter
        (fun (e' : Continuous.entry) ->
          if e'.Continuous.start <= t then begin
            (match Action.claim config demand e'.Continuous.action with
            | Some (node, cpu, mem) ->
              use_cpu.(node) <- use_cpu.(node) + cpu;
              use_mem.(node) <- use_mem.(node) + mem
            | None -> ());
            if e'.Continuous.finish <= t then
              List.iter
                (fun (node, cpu, mem) ->
                  use_cpu.(node) <- use_cpu.(node) - cpu;
                  use_mem.(node) <- use_mem.(node) - mem)
                (frees_of e'.Continuous.action)
          end)
        entries;
      let ok = ref true in
      for i = 0 to n - 1 do
        if use_cpu.(i) > cap_cpu.(i) || use_mem.(i) > cap_mem.(i) then
          ok := false
      done;
      !ok)
    entries

let test_continuous_beats_pool_barrier () =
  (* pool 1 holds a long suspend and a short migration; the run of pool
     2 only needs the migration's source — continuous starts it ~100 s
     earlier *)
  let nodes = mk_nodes ~cpu:200 ~mem:2048 3 in
  let vms = mk_vms [ 2048; 512; 2048 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 1) in
  let config = Configuration.set_state config 2 (Configuration.Sleeping 1) in
  let demand = Demand.uniform ~vm_count:3 50 in
  let target =
    Configuration.with_states config
      [|
        Configuration.Sleeping 0;  (* long suspend of the 2 GB VM *)
        Configuration.Running 2;   (* short migration off N1 *)
        Configuration.Running 1;   (* long resume: needs only the migration *)
      |]
  in
  let plan = Planner.build ~current:config ~target ~demand () in
  check_int "pool plan has a barrier" 2 (Plan.pool_count plan);
  let pooled = Schedule.of_plan config plan in
  let continuous = Continuous.schedule ~current:config ~demand ~plan () in
  (* pooled: the 2 GB resume waits for the 2 GB suspend (~98 s + ~79 s);
     continuous: it starts right after the 8 s migration and overlaps
     the suspend *)
  check_bool "strictly faster" true
    (Continuous.makespan continuous < 0.65 *. Schedule.makespan pooled);
  check_bool "feasible" true
    (continuous_feasible config demand (Continuous.entries continuous));
  check_int "same actions" (Plan.action_count plan)
    (List.length (Continuous.entries continuous))

let test_continuous_respects_dependencies () =
  (* Figure 7: the migration cannot start before the suspend finishes,
     continuous or not *)
  let nodes = mk_nodes ~cpu:200 ~mem:2048 2 in
  let vms = mk_vms [ 1024; 1536 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 1) in
  let demand = Demand.uniform ~vm_count:2 50 in
  let target =
    Configuration.with_states config
      [| Configuration.Running 1; Configuration.Sleeping 1 |]
  in
  let plan = Planner.build ~current:config ~target ~demand () in
  let continuous = Continuous.schedule ~current:config ~demand ~plan () in
  let entry vm =
    List.find
      (fun (e : Continuous.entry) -> Action.vm e.Continuous.action = vm)
      (Continuous.entries continuous)
  in
  check_bool "migration waits for the suspend" true
    ((entry 0).Continuous.start >= (entry 1).Continuous.finish -. 1e-9)

let test_continuous_groups_vjob_resumes () =
  (* a vjob's two resumes must start within the pipeline gap of each
     other even when one could start earlier *)
  let nodes = mk_nodes ~cpu:100 ~mem:2048 2 in
  let vms = mk_vms [ 1536; 1024; 1024 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Sleeping 0) in
  let config = Configuration.set_state config 2 (Configuration.Sleeping 1) in
  let demand = Demand.uniform ~vm_count:3 50 in
  let target =
    Configuration.with_states config
      [|
        Configuration.Sleeping 0;
        Configuration.Running 0;
        Configuration.Running 1;
      |]
  in
  let vjob = Vjob.make ~id:0 ~name:"j" ~vms:[ 1; 2 ] () in
  let plan =
    Planner.build ~vjobs:[ vjob ] ~current:config ~target ~demand ()
  in
  let continuous =
    Continuous.schedule ~vjobs:[ vjob ] ~current:config ~demand ~plan ()
  in
  let starts =
    List.filter_map
      (fun (e : Continuous.entry) ->
        match e.Continuous.action with
        | Action.Resume _ -> Some e.Continuous.start
        | _ -> None)
      (Continuous.entries continuous)
  in
  check_int "two resumes" 2 (List.length starts);
  let a, b = (List.nth starts 0, List.nth starts 1) in
  check_bool "started within the pipeline gap" true (Float.abs (a -. b) <= 1.001)

(* -- properties ----------------------------------------------------------------- *)

(* Random scenario including RAM-suspended VMs. State codes:
   0 waiting, 1 running, 2 sleeping (disk), 3 sleeping-ram. *)
let gen_ram_scenario =
  QCheck.Gen.(
    let* n_nodes = int_range 2 5 in
    let* n_vms = int_range 1 8 in
    let* mems = list_repeat n_vms (oneofl [ 256; 512; 1024 ]) in
    let* cpus = list_repeat n_vms (oneofl [ 5; 50; 100 ]) in
    let* states = list_repeat n_vms (int_range 0 3) in
    let* placements = list_repeat n_vms (int_range 0 (n_nodes - 1)) in
    return (n_nodes, mems, cpus, states, placements))

let ram_scenario_print (n, mems, cpus, states, placements) =
  Printf.sprintf "nodes=%d mems=%s cpus=%s states=%s placements=%s" n
    (String.concat "," (List.map string_of_int mems))
    (String.concat "," (List.map string_of_int cpus))
    (String.concat "," (List.map string_of_int states))
    (String.concat "," (List.map string_of_int placements))

let build_ram_scenario (n_nodes, mems, cpus, states, placements) =
  let nodes = mk_nodes n_nodes in
  let vms = mk_vms mems in
  let config = ref (Configuration.make ~nodes ~vms) in
  let demand = Demand.of_fn ~vm_count:(List.length mems) (List.nth cpus) in
  List.iteri
    (fun vm_id (state, node) ->
      let cpu = Demand.cpu demand vm_id in
      let mem = Vm.memory_mb (Configuration.vm !config vm_id) in
      match state with
      | 1 when Configuration.fits !config demand ~cpu ~mem node ->
        config := Configuration.set_state !config vm_id (Configuration.Running node)
      | 2 ->
        config := Configuration.set_state !config vm_id (Configuration.Sleeping node)
      | 3 when Configuration.free_mem !config node >= mem ->
        config :=
          Configuration.set_state !config vm_id (Configuration.Sleeping_ram node)
      | _ -> ())
    (List.combine states placements);
  (!config, demand)

let prop_ram_plans_valid =
  QCheck.Test.make
    ~name:"plans over mixed disk/RAM states are valid and consistent"
    ~count:300
    (QCheck.make ~print:ram_scenario_print gen_ram_scenario)
    (fun scenario ->
      let config, demand = build_ram_scenario scenario in
      let vjobs =
        List.init (Configuration.vm_count config) (fun i ->
            Vjob.make ~id:i ~name:(Printf.sprintf "j%d" i) ~vms:[ i ]
              ~submit_time:(float_of_int i) ())
      in
      let outcome = Rjsp.solve ~config ~demand ~queue:vjobs () in
      let target =
        Rgraph.normalize_sleeping ~current:config outcome.Rjsp.ffd_config
      in
      match Planner.build ~vjobs ~current:config ~target ~demand () with
      | exception Planner.Stuck _ -> QCheck.assume_fail ()
      | plan ->
        Verifier.is_clean ~current:config ~target ~demand plan
        && Configuration.is_viable target demand)

let prop_schedule_invariants =
  QCheck.Test.make
    ~name:"timed schedule covers every action, makespan = max finish"
    ~count:300
    (QCheck.make ~print:ram_scenario_print gen_ram_scenario)
    (fun scenario ->
      let config, demand = build_ram_scenario scenario in
      let vjobs =
        List.init (Configuration.vm_count config) (fun i ->
            Vjob.make ~id:i ~name:(Printf.sprintf "j%d" i) ~vms:[ i ]
              ~submit_time:(float_of_int i) ())
      in
      let outcome = Rjsp.solve ~config ~demand ~queue:vjobs () in
      let target =
        Rgraph.normalize_sleeping ~current:config outcome.Rjsp.ffd_config
      in
      match Planner.build ~vjobs ~current:config ~target ~demand () with
      | exception Planner.Stuck _ -> QCheck.assume_fail ()
      | plan ->
        let sched = Schedule.of_plan config plan in
        let entries = Schedule.entries sched in
        List.length entries = Plan.action_count plan
        && List.for_all
             (fun e ->
               e.Schedule.start >= 0. && e.Schedule.finish >= e.Schedule.start)
             entries
        && Float.abs
             (Schedule.makespan sched
             -. List.fold_left
                  (fun acc e -> Float.max acc e.Schedule.finish)
                  0. entries)
           < 1e-6)

let prop_rules_maintained_or_fallback =
  QCheck.Test.make
    ~name:"optimizer output viable; rules hold whenever it claims so"
    ~count:150
    (QCheck.make ~print:ram_scenario_print gen_ram_scenario)
    (fun scenario ->
      let config, demand = build_ram_scenario scenario in
      let n_vms = Configuration.vm_count config in
      let rules =
        if n_vms >= 2 then [ Placement_rules.Spread [ 0; 1 ] ] else []
      in
      let vjobs =
        List.init n_vms (fun i ->
            Vjob.make ~id:i ~name:(Printf.sprintf "j%d" i) ~vms:[ i ]
              ~submit_time:(float_of_int i) ())
      in
      let outcome = Rjsp.solve ~rules ~config ~demand ~queue:vjobs () in
      match
        Optimizer.optimize ~timeout:0.2 ~rules ~vjobs ~current:config ~demand
          ~placed:(List.concat_map Vjob.vms outcome.Rjsp.running)
          ~target_base:outcome.Rjsp.ffd_config
          ~fallback:outcome.Rjsp.ffd_config ()
      with
      | exception Planner.Stuck _ -> QCheck.assume_fail ()
      | result ->
        Configuration.is_viable result.Optimizer.target demand
        && (not result.Optimizer.rules_satisfied
           || Placement_rules.check_all result.Optimizer.target rules))

let prop_continuous_never_slower_than_pools =
  QCheck.Test.make
    ~name:"continuous makespan <= pool makespan; schedule feasible"
    ~count:300
    (QCheck.make ~print:ram_scenario_print gen_ram_scenario)
    (fun scenario ->
      let config, demand = build_ram_scenario scenario in
      let vjobs =
        List.init (Configuration.vm_count config) (fun i ->
            Vjob.make ~id:i ~name:(Printf.sprintf "j%d" i) ~vms:[ i ]
              ~submit_time:(float_of_int i) ())
      in
      let outcome = Rjsp.solve ~config ~demand ~queue:vjobs () in
      let target =
        Rgraph.normalize_sleeping ~current:config outcome.Rjsp.ffd_config
      in
      match Planner.build ~vjobs ~current:config ~target ~demand () with
      | exception Planner.Stuck _ -> QCheck.assume_fail ()
      | plan -> (
        let pooled = Schedule.of_plan config plan in
        match Continuous.schedule ~vjobs ~current:config ~demand ~plan () with
        | exception Continuous.Stuck _ ->
          (* documented fallback on very tight clusters: callers keep
             the pool-based execution *)
          true
        | continuous ->
          Continuous.makespan continuous
          <= Schedule.makespan pooled +. 1e-6
          && continuous_feasible config demand
               (Continuous.entries continuous)
          && List.length (Continuous.entries continuous)
             = Plan.action_count plan))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "entropy_core_extensions"
    [
      ( "rules-check",
        [
          Alcotest.test_case "spread" `Quick test_rules_spread_check;
          Alcotest.test_case "gather" `Quick test_rules_gather_check;
          Alcotest.test_case "ban/fence" `Quick test_rules_ban_fence_check;
          Alcotest.test_case "allowed nodes" `Quick test_rules_allowed_nodes;
        ] );
      ( "rules-ffd",
        [
          Alcotest.test_case "spread" `Quick test_ffd_respects_spread;
          Alcotest.test_case "gather" `Quick test_ffd_respects_gather;
          Alcotest.test_case "ban" `Quick test_ffd_respects_ban;
          Alcotest.test_case "infeasible" `Quick test_ffd_infeasible_rules;
          Alcotest.test_case "existing VMs counted" `Quick
            test_ffd_spread_accounts_existing;
        ] );
      ( "rules-optimizer",
        [
          Alcotest.test_case "maintains spread" `Quick
            test_optimizer_maintains_spread;
          Alcotest.test_case "compliance over cost" `Quick
            test_optimizer_rule_beats_cheaper_violation;
          Alcotest.test_case "maintains fence" `Quick
            test_optimizer_maintains_fence;
          Alcotest.test_case "maintains gather" `Quick
            test_optimizer_maintains_gather;
          Alcotest.test_case "end to end" `Quick
            test_decision_with_rules_end_to_end;
        ] );
      ( "quota",
        [
          Alcotest.test_case "check" `Quick test_quota_check;
          Alcotest.test_case "ffd" `Quick test_quota_ffd;
          Alcotest.test_case "optimizer" `Quick test_quota_optimizer;
        ] );
      ( "suspend-to-ram",
        [
          Alcotest.test_case "memory not cpu" `Quick
            test_ram_state_consumes_memory_not_cpu;
          Alcotest.test_case "actions apply" `Quick test_ram_actions_apply;
          Alcotest.test_case "cpu-only claim" `Quick
            test_ram_resume_claims_cpu_only;
          Alcotest.test_case "rgraph + planner" `Quick
            test_ram_rgraph_and_planner;
          Alcotest.test_case "image pinned" `Quick test_ram_image_cannot_move;
          Alcotest.test_case "cost model" `Quick test_ram_cost_model;
          Alcotest.test_case "prefer ram respects memory" `Quick
            test_prefer_ram_suspends_respects_memory;
          Alcotest.test_case "rjsp resumes in place" `Quick
            test_rjsp_resumes_ram_vjob_in_place;
          Alcotest.test_case "rjsp blocked by cpu" `Quick
            test_rjsp_ram_vjob_blocked_by_cpu;
          Alcotest.test_case "end-to-end ram policy" `Quick
            test_end_to_end_ram_policy;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "pools sequential" `Quick
            test_schedule_pools_sequential;
          Alcotest.test_case "pipelined suspends" `Quick
            test_schedule_pipelines_suspends;
          Alcotest.test_case "remote resume longer" `Quick
            test_schedule_remote_resume_longer;
          Alcotest.test_case "empty plan" `Quick test_schedule_empty_plan;
        ] );
      ( "weighted",
        [
          Alcotest.test_case "overrides fcfs" `Quick
            test_weighted_overrides_fcfs;
        ] );
      ( "continuous",
        [
          Alcotest.test_case "beats pool barrier" `Quick
            test_continuous_beats_pool_barrier;
          Alcotest.test_case "respects dependencies" `Quick
            test_continuous_respects_dependencies;
          Alcotest.test_case "groups vjob resumes" `Quick
            test_continuous_groups_vjob_resumes;
        ] );
      ( "properties",
        qsuite
          [
            prop_ram_plans_valid;
            prop_schedule_invariants;
            prop_rules_maintained_or_fallback;
            prop_continuous_never_slower_than_pools;
          ] );
    ]

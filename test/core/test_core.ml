(* Tests for the Entropy core: model, cost model (Table 1),
   reconfiguration graph, planner (pools, cycles, bypass migrations),
   vjob consistency, FFD, RJSP and the CP optimiser. *)

open Entropy_core
module Verifier = Entropy_analysis.Verifier

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- fixtures ------------------------------------------------------------- *)

let mk_nodes ?(cpu = 200) ?(mem = 3584) n =
  Array.init n (fun i ->
      Node.make ~id:i ~name:(Printf.sprintf "N%d" i) ~cpu_capacity:cpu
        ~memory_mb:mem)

let mk_vms specs =
  (* specs: memory_mb list *)
  Array.of_list
    (List.mapi
       (fun i m -> Vm.make ~id:i ~name:(Printf.sprintf "vm%d" i) ~memory_mb:m)
       specs)

(* the Figure 7 scenario: two nodes, VM2 must suspend before VM1 can
   migrate to its node *)
let fig7 () =
  let nodes = mk_nodes ~cpu:200 ~mem:2048 2 in
  let vms = mk_vms [ 1024; 1536 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 1) in
  let demand = Demand.uniform ~vm_count:2 50 in
  (config, demand)

(* the Figure 8 scenario: two 2048 MB nodes each hosting a 1536 MB VM
   that must swap: inter-dependent migrations requiring a pivot *)
let fig8 () =
  let nodes = mk_nodes ~cpu:200 ~mem:2048 3 in
  let vms = mk_vms [ 1536; 1536 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 1) in
  let demand = Demand.uniform ~vm_count:2 50 in
  (config, demand)

(* -- model ---------------------------------------------------------------- *)

let test_vm_validation () =
  Alcotest.check_raises "zero memory rejected"
    (Invalid_argument "Vm.make: memory_mb must be positive") (fun () ->
      ignore (Vm.make ~id:0 ~name:"x" ~memory_mb:0))

let test_node_testbed () =
  let n = Node.testbed ~id:0 ~name:"n" in
  check_int "2 cores" 200 (Node.cpu_capacity n);
  check_int "4GB minus dom0" 3584 (Node.memory_mb n)

let test_vjob_validation () =
  Alcotest.check_raises "empty vjob rejected"
    (Invalid_argument "Vjob.make: a vjob needs at least one VM") (fun () ->
      ignore (Vjob.make ~id:0 ~name:"j" ~vms:[] ()));
  Alcotest.check_raises "duplicate VM rejected"
    (Invalid_argument "Vjob.make: duplicate VM in vjob") (fun () ->
      ignore (Vjob.make ~id:0 ~name:"j" ~vms:[ 1; 1 ] ()))

let test_vjob_fcfs_order () =
  let a = Vjob.make ~id:0 ~name:"a" ~vms:[ 0 ] ~submit_time:5. () in
  let b = Vjob.make ~id:1 ~name:"b" ~vms:[ 1 ] ~submit_time:3. () in
  let c = Vjob.make ~id:2 ~name:"c" ~vms:[ 2 ] ~priority:(-1) ~submit_time:9. () in
  let sorted = List.sort Vjob.compare_fcfs [ a; b; c ] in
  Alcotest.(check (list string))
    "priority then time"
    [ "c"; "b"; "a" ]
    (List.map Vjob.name sorted)

let test_lifecycle_transitions () =
  let open Lifecycle in
  check_bool "run from waiting" true (can Waiting Run);
  check_bool "suspend from running" true (can Running Suspend);
  check_bool "resume from sleeping" true (can Sleeping Resume);
  check_bool "stop from running" true (can Running Stop);
  check_bool "migrate keeps running" true (next Running Migrate = Some Running);
  check_bool "no run from running" false (can Running Run);
  check_bool "no resume from waiting" false (can Waiting Resume);
  check_bool "nothing from terminated" false
    (List.exists (can Terminated) [ Run; Suspend; Resume; Stop; Migrate ])

let test_lifecycle_ready () =
  let open Lifecycle in
  check_bool "waiting ready" true (is_ready Waiting);
  check_bool "sleeping ready" true (is_ready Sleeping);
  check_bool "running not ready" false (is_ready Running);
  check_bool "terminated not ready" false (is_ready Terminated)

let test_lifecycle_between () =
  let open Lifecycle in
  check_bool "waiting->running is run" true (between Waiting Running = Some Run);
  check_bool "running->sleeping is suspend" true
    (between Running Sleeping = Some Suspend);
  check_bool "same state no transition" true (between Running Running = None)

(* -- configuration -------------------------------------------------------- *)

let test_config_initial_waiting () =
  let config =
    Configuration.make ~nodes:(mk_nodes 2) ~vms:(mk_vms [ 512; 512 ])
  in
  check_bool "all waiting" true
    (Configuration.state config 0 = Configuration.Waiting
    && Configuration.state config 1 = Configuration.Waiting)

let test_config_dense_ids_checked () =
  let bad_nodes =
    [| Node.make ~id:7 ~name:"n" ~cpu_capacity:100 ~memory_mb:1024 |]
  in
  Alcotest.check_raises "non dense ids"
    (Invalid_argument "Configuration.make: node ids must equal their index")
    (fun () -> ignore (Configuration.make ~nodes:bad_nodes ~vms:[||]))

let test_config_loads_and_viability () =
  let nodes = mk_nodes ~cpu:100 ~mem:2048 2 in
  let vms = mk_vms [ 1024; 1024; 512 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 0) in
  let demand = Demand.of_fn ~vm_count:3 (fun _ -> 40) in
  check_int "mem load" 2048 (Configuration.mem_load config 0);
  check_int "cpu load" 80 (Configuration.cpu_load config demand 0);
  check_bool "viable" true (Configuration.is_viable config demand);
  (* a third VM on node 0 overloads its memory *)
  let config = Configuration.set_state config 2 (Configuration.Running 0) in
  check_bool "not viable" false (Configuration.is_viable config demand);
  Alcotest.(check (list int))
    "overloaded nodes" [ 0 ]
    (Configuration.overloaded_nodes config demand)

let test_config_cpu_overload () =
  (* Figure 5: two full-CPU VMs on a single-CPU node *)
  let nodes = mk_nodes ~cpu:100 ~mem:4096 3 in
  let vms = mk_vms [ 512; 512; 512 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 1 (Configuration.Running 0) in
  let config = Configuration.set_state config 2 (Configuration.Running 0) in
  let demand = Demand.of_fn ~vm_count:3 (fun _ -> 100) in
  check_bool "two busy VMs on one CPU: non-viable" false
    (Configuration.is_viable config demand);
  let config = Configuration.set_state config 2 (Configuration.Running 1) in
  check_bool "spread: viable" true (Configuration.is_viable config demand)

let test_config_sleeping_consumes_nothing () =
  let nodes = mk_nodes ~cpu:100 ~mem:1024 1 in
  let vms = mk_vms [ 2048 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Sleeping 0) in
  let demand = Demand.uniform ~vm_count:1 100 in
  check_int "no mem load" 0 (Configuration.mem_load config 0);
  check_bool "viable" true (Configuration.is_viable config demand)

let test_config_vjob_state () =
  let nodes = mk_nodes 2 in
  let vms = mk_vms [ 512; 512 ] in
  let vjob = Vjob.make ~id:0 ~name:"j" ~vms:[ 0; 1 ] () in
  let config = Configuration.make ~nodes ~vms in
  Alcotest.(check (option string))
    "waiting" (Some "waiting")
    (Option.map Lifecycle.state_to_string (Configuration.vjob_state config vjob));
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  Alcotest.(check (option string))
    "inconsistent" None
    (Option.map Lifecycle.state_to_string (Configuration.vjob_state config vjob));
  let config = Configuration.set_state config 1 (Configuration.Running 1) in
  Alcotest.(check (option string))
    "running" (Some "running")
    (Option.map Lifecycle.state_to_string (Configuration.vjob_state config vjob))

(* -- actions -------------------------------------------------------------- *)

let test_action_apply_run () =
  let config =
    Configuration.make ~nodes:(mk_nodes 2) ~vms:(mk_vms [ 512 ])
  in
  let config' = Action.apply config (Action.Run { vm = 0; dst = 1 }) in
  check_bool "running" true
    (Configuration.state config' 0 = Configuration.Running 1);
  check_bool "original untouched" true
    (Configuration.state config 0 = Configuration.Waiting)

let test_action_apply_full_cycle () =
  let config =
    Configuration.make ~nodes:(mk_nodes 3) ~vms:(mk_vms [ 512 ])
  in
  let config = Action.apply config (Action.Run { vm = 0; dst = 0 }) in
  let config = Action.apply config (Action.Migrate { vm = 0; src = 0; dst = 1 }) in
  let config = Action.apply config (Action.Suspend { vm = 0; host = 1 }) in
  check_bool "image on host" true
    (Configuration.state config 0 = Configuration.Sleeping 1);
  let config = Action.apply config (Action.Resume { vm = 0; src = 1; dst = 2 }) in
  check_bool "resumed remote" true
    (Configuration.state config 0 = Configuration.Running 2);
  let config = Action.apply config (Action.Stop { vm = 0; host = 2 }) in
  check_bool "terminated" true
    (Configuration.state config 0 = Configuration.Terminated)

let test_action_apply_invalid () =
  let config =
    Configuration.make ~nodes:(mk_nodes 2) ~vms:(mk_vms [ 512 ])
  in
  check_bool "resume from waiting rejected" true
    (try
       ignore (Action.apply config (Action.Resume { vm = 0; src = 0; dst = 1 }));
       false
     with Action.Invalid _ -> true)

let test_action_feasibility () =
  let nodes = mk_nodes ~cpu:100 ~mem:1024 2 in
  let vms = mk_vms [ 1024; 768 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let demand = Demand.uniform ~vm_count:2 10 in
  check_bool "run on full node infeasible" false
    (Action.feasible config demand (Action.Run { vm = 1; dst = 0 }));
  check_bool "run on free node feasible" true
    (Action.feasible config demand (Action.Run { vm = 1; dst = 1 }));
  check_bool "suspend always feasible" true
    (Action.feasible config demand (Action.Suspend { vm = 0; host = 0 }))

let test_action_is_local () =
  check_bool "local resume" true
    (Action.is_local (Action.Resume { vm = 0; src = 1; dst = 1 }));
  check_bool "remote resume" false
    (Action.is_local (Action.Resume { vm = 0; src = 1; dst = 2 }));
  check_bool "migration remote" false
    (Action.is_local (Action.Migrate { vm = 0; src = 0; dst = 1 }))

(* -- cost (Table 1) ------------------------------------------------------- *)

let test_cost_table1 () =
  let config =
    Configuration.make ~nodes:(mk_nodes 3) ~vms:(mk_vms [ 512; 2048 ])
  in
  check_int "run free" 0 (Cost.action config (Action.Run { vm = 0; dst = 0 }));
  check_int "stop free" 0 (Cost.action config (Action.Stop { vm = 0; host = 0 }));
  check_int "migrate = Dm" 512
    (Cost.action config (Action.Migrate { vm = 0; src = 0; dst = 1 }));
  check_int "suspend = Dm" 2048
    (Cost.action config (Action.Suspend { vm = 1; host = 0 }));
  check_int "local resume = Dm" 2048
    (Cost.action config (Action.Resume { vm = 1; src = 0; dst = 0 }));
  check_int "remote resume = 2Dm" 4096
    (Cost.action config (Action.Resume { vm = 1; src = 0; dst = 1 }))

let test_cost_pool_is_max () =
  let config =
    Configuration.make ~nodes:(mk_nodes 3) ~vms:(mk_vms [ 512; 2048 ])
  in
  let pool =
    [
      Action.Migrate { vm = 0; src = 0; dst = 1 };
      Action.Suspend { vm = 1; host = 0 };
    ]
  in
  check_int "pool = max" 2048 (Cost.pool config pool)

let test_cost_plan_sequencing () =
  (* Figure 9 style: pool 1 = suspend(2048) + migrate(512);
     pool 2 = resume(local 1024). Pool1 actions cost their local costs;
     the pool-2 action also pays pool 1's cost (2048). *)
  let config =
    Configuration.make ~nodes:(mk_nodes 3) ~vms:(mk_vms [ 512; 2048; 1024 ])
  in
  let pools =
    [
      [
        Action.Suspend { vm = 1; host = 0 };
        Action.Migrate { vm = 0; src = 0; dst = 1 };
      ];
      [ Action.Resume { vm = 2; src = 2; dst = 2 } ];
    ]
  in
  check_int "total" (2048 + 512 + (2048 + 1024)) (Cost.plan config pools)

let test_cost_plan_empty () =
  let config = Configuration.make ~nodes:(mk_nodes 1) ~vms:(mk_vms [ 512 ]) in
  check_int "empty plan free" 0 (Cost.plan config [])

let test_cost_lower_bound () =
  let nodes = mk_nodes 3 in
  let vms = mk_vms [ 512; 1024 ] in
  let current = Configuration.make ~nodes ~vms in
  let current = Configuration.set_state current 0 (Configuration.Running 0) in
  let current = Configuration.set_state current 1 (Configuration.Sleeping 1) in
  let target = Configuration.with_states current
      [| Configuration.Running 1; Configuration.Running 2 |] in
  (* VM0 migrates (512); VM1 resumes remotely (2048) *)
  check_int "lb" (512 + 2048) (Cost.lower_bound ~current ~target)

(* -- rgraph --------------------------------------------------------------- *)

let test_rgraph_actions () =
  let nodes = mk_nodes 3 in
  let vms = mk_vms [ 512; 512; 512; 512 ] in
  let current = Configuration.make ~nodes ~vms in
  let current = Configuration.set_state current 0 (Configuration.Running 0) in
  let current = Configuration.set_state current 1 (Configuration.Running 1) in
  let current = Configuration.set_state current 2 (Configuration.Sleeping 2) in
  let target =
    Configuration.with_states current
      [|
        Configuration.Running 1;     (* migrate *)
        Configuration.Sleeping 1;    (* suspend *)
        Configuration.Running 2;     (* local resume *)
        Configuration.Running 0;     (* run *)
      |]
  in
  let actions = Rgraph.actions ~current ~target in
  check_int "4 actions" 4 (List.length actions);
  check_bool "migrate present" true
    (List.mem (Action.Migrate { vm = 0; src = 0; dst = 1 }) actions);
  check_bool "suspend present" true
    (List.mem (Action.Suspend { vm = 1; host = 1 }) actions);
  check_bool "resume present" true
    (List.mem (Action.Resume { vm = 2; src = 2; dst = 2 }) actions);
  check_bool "run present" true
    (List.mem (Action.Run { vm = 3; dst = 0 }) actions)

let test_rgraph_no_action_when_equal () =
  let current =
    Configuration.make ~nodes:(mk_nodes 1) ~vms:(mk_vms [ 512 ])
  in
  check_int "no actions" 0 (List.length (Rgraph.actions ~current ~target:current))

let test_rgraph_rejects_impossible () =
  let current =
    Configuration.make ~nodes:(mk_nodes 1) ~vms:(mk_vms [ 512 ])
  in
  let target =
    Configuration.with_states current [| Configuration.Sleeping 0 |]
  in
  check_bool "waiting->sleeping impossible" true
    (try
       ignore (Rgraph.actions ~current ~target);
       false
     with Rgraph.Unreachable _ -> true)

let test_rgraph_normalize_sleeping () =
  let nodes = mk_nodes 3 in
  let vms = mk_vms [ 512 ] in
  let current = Configuration.make ~nodes ~vms in
  let current = Configuration.set_state current 0 (Configuration.Running 2) in
  let target = Configuration.with_states current [| Configuration.Sleeping 0 |] in
  let target = Rgraph.normalize_sleeping ~current target in
  check_bool "image location is the host" true
    (Configuration.state target 0 = Configuration.Sleeping 2)

(* -- planner -------------------------------------------------------------- *)

let demand_all config v = Demand.uniform ~vm_count:(Configuration.vm_count config) v

let test_planner_sequential_constraint () =
  (* Figure 7: suspend(VM2) must precede migrate(VM1) *)
  let config, demand = fig7 () in
  let target =
    Configuration.with_states config
      [| Configuration.Running 1; Configuration.Sleeping 1 |]
  in
  let plan = Planner.build ~current:config ~target ~demand () in
  check_int "two pools" 2 (Plan.pool_count plan);
  (match Plan.pools plan with
  | [ first; second ] ->
    check_bool "suspend first" true
      (List.mem (Action.Suspend { vm = 1; host = 1 }) first);
    check_bool "migrate second" true
      (List.mem (Action.Migrate { vm = 0; src = 0; dst = 1 }) second)
  | _ -> Alcotest.fail "expected 2 pools");
  check_bool "plan valid" true
    (Verifier.is_clean ~current:config ~target ~demand plan)

let test_planner_cycle_bypass () =
  (* Figure 8: swap two VMs that do not fit together; pivot N3 *)
  let config, demand = fig8 () in
  let target =
    Configuration.with_states config
      [| Configuration.Running 1; Configuration.Running 0 |]
  in
  let plan = Planner.build ~current:config ~target ~demand () in
  check_bool "valid" true (Verifier.is_clean ~current:config ~target ~demand plan);
  check_int "three migrations (one bypass)" 3 (Plan.migration_count plan);
  check_bool "at least 3 pools" true (Plan.pool_count plan >= 3)

let test_planner_no_pivot_breaks_via_disk () =
  (* same swap but no third node: no pivot exists, so the planner breaks
     the cycle through the disk (suspend one VM, resume it at its
     destination) — the capability migration-only managers lack *)
  let nodes = mk_nodes ~cpu:200 ~mem:2048 2 in
  let vms = mk_vms [ 1536; 1536 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 1) in
  let demand = demand_all config 50 in
  let target =
    Configuration.with_states config
      [| Configuration.Running 1; Configuration.Running 0 |]
  in
  let plan = Planner.build ~current:config ~target ~demand () in
  check_bool "valid" true (Verifier.is_clean ~current:config ~target ~demand plan);
  check_int "one suspend" 1 (Plan.suspend_count plan);
  check_int "one resume" 1 (Plan.resume_count plan);
  check_int "one migration" 1 (Plan.migration_count plan)

let test_planner_parallel_pool () =
  (* two independent migrations to two distinct free nodes: one pool *)
  let nodes = mk_nodes ~cpu:200 ~mem:4096 4 in
  let vms = mk_vms [ 512; 512 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 1) in
  let demand = demand_all config 50 in
  let target =
    Configuration.with_states config
      [| Configuration.Running 2; Configuration.Running 3 |]
  in
  let plan = Planner.build ~current:config ~target ~demand () in
  check_int "single pool" 1 (Plan.pool_count plan);
  check_int "two actions" 2 (Plan.action_count plan)

let test_planner_pool_claims_against_start () =
  (* two runs that each fit alone but not together must span two pools
     only if really needed; here node has room for one VM, other goes
     elsewhere? no: single node, two waiting VMs, both target that node,
     capacity for only one -> the target is non-viable; build must raise *)
  let nodes = mk_nodes ~cpu:100 ~mem:1024 1 in
  let vms = mk_vms [ 768; 768 ] in
  let config = Configuration.make ~nodes ~vms in
  let demand = demand_all config 10 in
  let target =
    Configuration.with_states config
      [| Configuration.Running 0; Configuration.Running 0 |]
  in
  check_bool "non-viable target rejected" true
    (try
       ignore (Planner.build ~current:config ~target ~demand ());
       false
     with Planner.Stuck _ -> true)

let test_planner_suspend_then_resume_sequence () =
  (* free a node by suspending, then resume another vjob there *)
  let nodes = mk_nodes ~cpu:100 ~mem:2048 1 in
  let vms = mk_vms [ 1536; 1536 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Sleeping 0) in
  let demand = demand_all config 60 in
  let target =
    Configuration.with_states config
      [| Configuration.Sleeping 0; Configuration.Running 0 |]
  in
  let plan = Planner.build ~current:config ~target ~demand () in
  check_bool "valid" true (Verifier.is_clean ~current:config ~target ~demand plan);
  check_int "two pools" 2 (Plan.pool_count plan);
  (match Plan.pools plan with
  | [ p1; p2 ] ->
    check_bool "suspend first" true
      (match p1 with [ Action.Suspend _ ] -> true | _ -> false);
    check_bool "resume second" true
      (match p2 with [ Action.Resume _ ] -> true | _ -> false)
  | _ -> Alcotest.fail "expected 2 pools")

let test_planner_migration_chain () =
  (* chain: VM0 on N0 -> N1 needs VM1 (N1) to leave to N2 first *)
  let nodes = mk_nodes ~cpu:100 ~mem:2048 3 in
  let vms = mk_vms [ 1536; 1536 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 1) in
  let demand = demand_all config 40 in
  let target =
    Configuration.with_states config
      [| Configuration.Running 1; Configuration.Running 2 |]
  in
  let plan = Planner.build ~current:config ~target ~demand () in
  check_bool "valid" true (Verifier.is_clean ~current:config ~target ~demand plan);
  check_int "two pools" 2 (Plan.pool_count plan);
  check_int "no bypass needed" 2 (Plan.migration_count plan)

let test_planner_figure9 () =
  (* Figure 9: a reconfiguration graph with 4 actions turning into 2
     pools — pool 1 = { suspend(VM3), migrate(VM1) }, pool 2 =
     { resume(VM5), run(VM6) } (resume and run wait for the freed
     resources). Cluster: N1 hosts VM1+VM3 (full), N2 has room for VM1
     only after nothing, N3 ... we mirror the structure: the migrate
     target has room, the resume/run targets need the freed space. *)
  let nodes = mk_nodes ~cpu:200 ~mem:2048 3 in
  let vms = mk_vms [ 2048; 2048; 2048; 2048 ] in
  (* VM0 ~ paper's VM1 (migrates to the free node), VM1 ~ VM3
     (suspends), VM2 ~ VM5 (resumes into VM0's old spot), VM3 ~ VM6
     (runs into VM1's old spot) *)
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 1) in
  let config = Configuration.set_state config 2 (Configuration.Sleeping 1) in
  let demand = demand_all config 60 in
  let target =
    Configuration.with_states config
      [|
        Configuration.Running 2;   (* migrate: N2 is free right away *)
        Configuration.Sleeping 1;  (* suspend *)
        Configuration.Running 0;   (* resume into the spot VM0 frees *)
        Configuration.Running 1;   (* run into the spot VM1 frees *)
      |]
  in
  let plan = Planner.build ~current:config ~target ~demand () in
  check_bool "valid" true (Verifier.is_clean ~current:config ~target ~demand plan);
  check_int "two pools" 2 (Plan.pool_count plan);
  match Plan.pools plan with
  | [ p1; p2 ] ->
    check_bool "pool1 = suspend + migrate" true
      (List.mem (Action.Suspend { vm = 1; host = 1 }) p1
      && List.mem (Action.Migrate { vm = 0; src = 0; dst = 2 }) p1);
    check_bool "pool2 = resume + run" true
      (List.mem (Action.Resume { vm = 2; src = 1; dst = 0 }) p2
      && List.mem (Action.Run { vm = 3; dst = 1 }) p2)
  | _ -> Alcotest.fail "expected exactly 2 pools"

(* -- consistency ---------------------------------------------------------- *)

let test_consistency_groups_resumes () =
  (* vjob of 2 VMs resuming in different pools must end up together *)
  let nodes = mk_nodes ~cpu:100 ~mem:2048 2 in
  let vms = mk_vms [ 1536; 1024; 1024 ] in
  let config = Configuration.make ~nodes ~vms in
  (* VM0 busy on N0 must suspend to free room for VM1; VM2 fits on N1
     immediately *)
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Sleeping 0) in
  let config = Configuration.set_state config 2 (Configuration.Sleeping 1) in
  let demand = demand_all config 50 in
  let target =
    Configuration.with_states config
      [|
        Configuration.Sleeping 0;
        Configuration.Running 0;
        Configuration.Running 1;
      |]
  in
  let vjob = Vjob.make ~id:0 ~name:"j" ~vms:[ 1; 2 ] () in
  let splits plan =
    List.filter_map
      (function
        | Verifier.Vjob_split { kind; _ } -> Some kind
        | _ -> None)
      (Verifier.verify ~vjobs:[ vjob ] ~current:config ~target ~demand plan)
  in
  let raw = Planner.build ~current:config ~target ~demand () in
  (* without grouping, VM2's resume is feasible in pool 0 while VM1's
     waits for the suspend: 2 pools with split resumes *)
  check_bool "raw plan splits the resumes" true (splits raw = [ `Resume ]);
  let plan =
    Planner.build ~vjobs:[ vjob ] ~current:config ~target ~demand ()
  in
  check_bool "grouped" true (splits plan = []);
  check_bool "verifier clean" true
    (Verifier.is_clean ~vjobs:[ vjob ] ~current:config ~target ~demand plan)

let test_consistency_sorts_pools_by_vm_name () =
  let nodes = mk_nodes ~cpu:200 ~mem:4096 2 in
  let vms = mk_vms [ 512; 512; 512 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 0) in
  let config = Configuration.set_state config 2 (Configuration.Running 0) in
  let demand = demand_all config 10 in
  let target =
    Configuration.with_states config
      [|
        Configuration.Sleeping 0;
        Configuration.Sleeping 0;
        Configuration.Sleeping 0;
      |]
  in
  let vjob = Vjob.make ~id:0 ~name:"j" ~vms:[ 0; 1; 2 ] () in
  let plan =
    Planner.build ~vjobs:[ vjob ] ~current:config ~target ~demand ()
  in
  match Plan.pools plan with
  | [ pool ] ->
    Alcotest.(check (list int))
      "sorted by vm name" [ 0; 1; 2 ]
      (List.map Action.vm pool)
  | _ -> Alcotest.fail "expected one pool"

(* -- ffd ------------------------------------------------------------------ *)

let test_ffd_basic_placement () =
  let nodes = mk_nodes ~cpu:100 ~mem:2048 2 in
  let vms = mk_vms [ 1024; 1024; 1024; 1024 ] in
  let config = Configuration.make ~nodes ~vms in
  let demand = demand_all config 50 in
  match Ffd.place config demand [ 0; 1; 2; 3 ] with
  | None -> Alcotest.fail "expected placement"
  | Some c ->
    check_bool "viable" true (Configuration.is_viable c demand);
    check_int "node0 full" 2048 (Configuration.mem_load c 0);
    check_int "node1 full" 2048 (Configuration.mem_load c 1)

let test_ffd_rejects_overflow () =
  let nodes = mk_nodes ~cpu:100 ~mem:2048 1 in
  let vms = mk_vms [ 1024; 1024; 1024 ] in
  let config = Configuration.make ~nodes ~vms in
  let demand = demand_all config 10 in
  check_bool "cannot place" false (Ffd.fits config demand [ 0; 1; 2 ])

let test_ffd_decreasing_order_matters () =
  (* classic FFD case: big items first avoids fragmentation *)
  let nodes = mk_nodes ~cpu:400 ~mem:1000 2 in
  let vms = mk_vms [ 300; 300; 700; 700 ] in
  let config = Configuration.make ~nodes ~vms in
  let demand = demand_all config 10 in
  match Ffd.place config demand [ 0; 1; 2; 3 ] with
  | None -> Alcotest.fail "FFD should pack (700+300) x2"
  | Some c -> check_bool "viable" true (Configuration.is_viable c demand)

let test_ffd_keeps_existing_running () =
  let nodes = mk_nodes ~cpu:100 ~mem:2048 2 in
  let vms = mk_vms [ 1536; 1024 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let demand = demand_all config 40 in
  match Ffd.place config demand [ 1 ] with
  | None -> Alcotest.fail "expected placement"
  | Some c ->
    check_bool "existing kept" true
      (Configuration.state c 0 = Configuration.Running 0);
    check_bool "new on free node" true
      (Configuration.state c 1 = Configuration.Running 1)

let test_ffd_heuristics_differ () =
  (* best-fit fills the tighter node; worst-fit the emptier one *)
  let nodes =
    [|
      Node.make ~id:0 ~name:"N0" ~cpu_capacity:400 ~memory_mb:1000;
      Node.make ~id:1 ~name:"N1" ~cpu_capacity:400 ~memory_mb:2000;
    |]
  in
  let vms = mk_vms [ 500 ] in
  let config = Configuration.make ~nodes ~vms in
  let demand = demand_all config 10 in
  let host heuristic =
    match Ffd.place ~heuristic config demand [ 0 ] with
    | Some c -> Option.get (Configuration.host c 0)
    | None -> Alcotest.fail "placement expected"
  in
  check_int "best-fit tight node" 0 (host Ffd.Best_fit);
  check_int "worst-fit roomy node" 1 (host Ffd.Worst_fit)

(* -- rjsp ----------------------------------------------------------------- *)

let mk_vjob_cluster () =
  (* 2 nodes x (200 cpu, 3584 MB); 3 vjobs of 2 VMs each, all busy *)
  let nodes = mk_nodes 2 in
  let vms = mk_vms [ 1024; 1024; 1024; 1024; 1024; 1024 ] in
  let config = Configuration.make ~nodes ~vms in
  let vjobs =
    [
      Vjob.make ~id:0 ~name:"j0" ~vms:[ 0; 1 ] ~submit_time:0. ();
      Vjob.make ~id:1 ~name:"j1" ~vms:[ 2; 3 ] ~submit_time:1. ();
      Vjob.make ~id:2 ~name:"j2" ~vms:[ 4; 5 ] ~submit_time:2. ();
    ]
  in
  (config, vjobs)

let test_rjsp_selects_fcfs_prefix () =
  let config, vjobs = mk_vjob_cluster () in
  (* full-CPU VMs: 2 per node max -> only 2 vjobs fit *)
  let demand = Demand.uniform ~vm_count:6 100 in
  let outcome = Rjsp.solve ~config ~demand ~queue:vjobs () in
  Alcotest.(check (list string))
    "running" [ "j0"; "j1" ]
    (List.map Vjob.name outcome.Rjsp.running);
  Alcotest.(check (list string))
    "ready" [ "j2" ]
    (List.map Vjob.name outcome.Rjsp.ready);
  check_bool "ffd config viable" true
    (Configuration.is_viable outcome.Rjsp.ffd_config demand)

let test_rjsp_skips_then_fits_later_vjob () =
  (* queue order j0(big), j1(too big), j2(small): j1 sleeps, j2 runs *)
  let nodes = mk_nodes ~cpu:300 ~mem:4096 1 in
  let vms = mk_vms [ 2048; 4096; 1024 ] in
  let config = Configuration.make ~nodes ~vms in
  let vjobs =
    [
      Vjob.make ~id:0 ~name:"j0" ~vms:[ 0 ] ~submit_time:0. ();
      Vjob.make ~id:1 ~name:"j1" ~vms:[ 1 ] ~submit_time:1. ();
      Vjob.make ~id:2 ~name:"j2" ~vms:[ 2 ] ~submit_time:2. ();
    ]
  in
  let demand = Demand.uniform ~vm_count:3 50 in
  let outcome = Rjsp.solve ~config ~demand ~queue:vjobs () in
  Alcotest.(check (list string))
    "running" [ "j0"; "j2" ]
    (List.map Vjob.name outcome.Rjsp.running)

let test_rjsp_reevaluates_sleeping () =
  (* a sleeping vjob is re-admitted when resources free up *)
  let config, vjobs = mk_vjob_cluster () in
  let demand = Demand.uniform ~vm_count:6 100 in
  (* j0 terminated: j1 and j2 can now both run *)
  let config =
    List.fold_left
      (fun c vm -> Configuration.set_state c vm Configuration.Terminated)
      config [ 0; 1 ]
  in
  let config = Configuration.set_state config 2 (Configuration.Running 0) in
  let config = Configuration.set_state config 3 (Configuration.Running 0) in
  let config = Configuration.set_state config 4 (Configuration.Sleeping 1) in
  let config = Configuration.set_state config 5 (Configuration.Sleeping 1) in
  let queue = List.filter (fun v -> Vjob.id v <> 0) vjobs in
  let outcome = Rjsp.solve ~config ~demand ~queue () in
  Alcotest.(check (list string))
    "both run" [ "j1"; "j2" ]
    (List.map Vjob.name outcome.Rjsp.running)

let test_rjsp_overload_suspends_last () =
  (* paper section 5.2: overloaded cluster -> lowest-priority running
     vjobs get suspended *)
  let config, vjobs = mk_vjob_cluster () in
  (* all three currently running (viable while demands are low) *)
  let config =
    List.fold_left
      (fun c (vm, node) ->
        Configuration.set_state c vm (Configuration.Running node))
      config
      [ (0, 0); (1, 0); (2, 0); (3, 1); (4, 1); (5, 1) ]
  in
  (* demands surge to full CPU: only 4 processing units exist *)
  let demand = Demand.uniform ~vm_count:6 100 in
  check_bool "overloaded" false (Configuration.is_viable config demand);
  let outcome = Rjsp.solve ~config ~demand ~queue:vjobs () in
  Alcotest.(check (list string))
    "last arrived suspended" [ "j2" ]
    (List.map Vjob.name outcome.Rjsp.ready)

(* -- optimizer ------------------------------------------------------------ *)

let test_optimizer_prefers_no_move () =
  (* current placement is already viable: optimal plan is empty *)
  let nodes = mk_nodes 2 in
  let vms = mk_vms [ 1024; 1024 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 1) in
  let demand = Demand.uniform ~vm_count:2 50 in
  (* a fallback that gratuitously swaps the two VMs *)
  let swapped =
    Configuration.with_states config
      [| Configuration.Running 1; Configuration.Running 0 |]
  in
  let result =
    Optimizer.optimize ~current:config ~demand ~placed:[ 0; 1 ]
      ~target_base:config ~fallback:swapped ()
  in
  check_int "zero cost" 0 result.Optimizer.cost;
  check_bool "no actions" true (Plan.is_empty result.Optimizer.plan);
  check_bool "improved over swap" true result.Optimizer.improved

let test_optimizer_prefers_local_resume () =
  (* a sleeping VM can resume locally (cost Dm) or remotely (2Dm) *)
  let nodes = mk_nodes ~cpu:100 ~mem:2048 2 in
  let vms = mk_vms [ 1024 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Sleeping 1) in
  let demand = Demand.uniform ~vm_count:1 50 in
  let remote =
    Configuration.with_states config [| Configuration.Running 0 |]
  in
  let result =
    Optimizer.optimize ~current:config ~demand ~placed:[ 0 ]
      ~target_base:config ~fallback:remote ()
  in
  check_bool "resumes on image host" true
    (Configuration.state result.Optimizer.target 0 = Configuration.Running 1);
  check_int "cost Dm" 1024 result.Optimizer.cost

let test_optimizer_respects_viability () =
  (* image host is full: must resume remotely even though dearer *)
  let nodes = mk_nodes ~cpu:100 ~mem:2048 2 in
  let vms = mk_vms [ 1536; 1024 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Sleeping 0) in
  let demand = Demand.uniform ~vm_count:2 40 in
  let fallback =
    Configuration.with_states config
      [| Configuration.Running 0; Configuration.Running 1 |]
  in
  let result =
    Optimizer.optimize ~current:config ~demand ~placed:[ 1 ]
      ~target_base:config ~fallback ()
  in
  check_bool "remote resume" true
    (Configuration.state result.Optimizer.target 1 = Configuration.Running 1);
  check_int "cost 2Dm" 2048 result.Optimizer.cost;
  check_bool "plan valid" true
    (Verifier.is_clean ~current:config ~target:result.Optimizer.target ~demand
       result.Optimizer.plan)

let test_optimizer_beats_ffd_on_relocation () =
  (* FFD would repack everything onto node 0 (first fit); the optimiser
     keeps the VMs where they run, cost 0 *)
  let nodes = mk_nodes 3 in
  let vms = mk_vms [ 512; 512; 512 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 2) in
  let config = Configuration.set_state config 1 (Configuration.Running 1) in
  let config = Configuration.set_state config 2 (Configuration.Running 0) in
  let demand = Demand.uniform ~vm_count:3 30 in
  let vjobs = [ Vjob.make ~id:0 ~name:"j" ~vms:[ 0; 1; 2 ] () ] in
  let outcome = Rjsp.solve ~config ~demand ~queue:vjobs () in
  let ffd_cost =
    Plan.cost config
      (Planner.build ~current:config ~target:outcome.Rjsp.ffd_config ~demand ())
  in
  let result =
    Optimizer.optimize ~vjobs ~current:config ~demand
      ~placed:(List.concat_map Vjob.vms outcome.Rjsp.running)
      ~target_base:outcome.Rjsp.ffd_config ~fallback:outcome.Rjsp.ffd_config ()
  in
  check_bool "ffd moves VMs" true (ffd_cost > 0);
  check_int "optimised cost 0" 0 result.Optimizer.cost;
  check_bool "improved" true result.Optimizer.improved

let test_optimizer_empty_placed () =
  let config = Configuration.make ~nodes:(mk_nodes 1) ~vms:(mk_vms [ 512 ]) in
  let demand = Demand.uniform ~vm_count:1 0 in
  let result =
    Optimizer.optimize ~current:config ~demand ~placed:[]
      ~target_base:config ~fallback:config ()
  in
  check_bool "falls back" true (result.Optimizer.stats = None);
  check_int "no cost" 0 result.Optimizer.cost

(* -- decision + loop ------------------------------------------------------ *)

let test_decision_consolidation_suspends_overload () =
  let config, vjobs = mk_vjob_cluster () in
  let config =
    List.fold_left
      (fun c (vm, node) ->
        Configuration.set_state c vm (Configuration.Running node))
      config
      [ (0, 0); (1, 0); (2, 0); (3, 1); (4, 1); (5, 1) ]
  in
  let demand = Demand.uniform ~vm_count:6 100 in
  let decision = Decision.consolidation ~cp_timeout:0.5 () in
  let obs = { Decision.config; demand; queue = vjobs; finished = [] } in
  let result = decision.Decision.decide obs in
  (* j2 must be sleeping, j0 j1 running, and the final config viable *)
  check_bool "viable target" true
    (Configuration.is_viable result.Optimizer.target demand);
  check_bool "j2 suspended" true
    (Configuration.vjob_state result.Optimizer.target (List.nth vjobs 2)
    = Some Lifecycle.Sleeping);
  check_bool "plan valid" true
    (Verifier.is_clean ~current:config
       ~target:
         (Rgraph.normalize_sleeping ~current:config result.Optimizer.target)
       ~demand result.Optimizer.plan)

let test_decision_stops_finished () =
  let config, vjobs = mk_vjob_cluster () in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 1) in
  let demand = Demand.uniform ~vm_count:6 50 in
  let decision = Decision.consolidation ~cp_timeout:0.5 () in
  let obs = { Decision.config; demand; queue = vjobs; finished = [ 0 ] } in
  let result = decision.Decision.decide obs in
  check_bool "vm0 terminated" true
    (Configuration.state result.Optimizer.target 0 = Configuration.Terminated);
  check_int "two stops" 2 (Plan.stop_count result.Optimizer.plan)

(* -- plan validation diagnostics (the verifier's findings) --------------- *)

let test_plan_validate_reports_infeasible_pool () =
  (* both runs target the same full node in one pool: the second run's
     claim must be pinned with its pool index, the exact action and the
     memory it lacks *)
  let nodes = mk_nodes ~cpu:100 ~mem:1024 1 in
  let vms = mk_vms [ 768; 768 ] in
  let config = Configuration.make ~nodes ~vms in
  let demand = demand_all config 10 in
  let target =
    Configuration.with_states config
      [| Configuration.Running 0; Configuration.Running 0 |]
  in
  let overflow pool findings =
    List.exists
      (function
        | Verifier.Claim_overflow
            {
              pool = p;
              action;
              node = 0;
              resource = Verifier.Mem;
              needed = 768;
              available = 256;
            } ->
          p = pool && Action.equal action (Action.Run { vm = 1; dst = 0 })
        | _ -> false)
      findings
  in
  let plan =
    Plan.make [ [ Action.Run { vm = 0; dst = 0 }; Action.Run { vm = 1; dst = 0 } ] ]
  in
  check_bool "exactly the overflowing run, in pool 0" true
    (overflow 0 (Verifier.verify ~current:config ~target ~demand plan));
  (* sequenced, the same claim still overflows (the node simply cannot
     hold both VMs) but the diagnostic must move to pool 1 *)
  let sequential =
    Plan.make
      [
        [ Action.Run { vm = 0; dst = 0 } ];
        [ Action.Run { vm = 1; dst = 0 } ];
      ]
  in
  check_bool "sequenced violation pinned to pool 1" true
    (overflow 1 (Verifier.verify ~current:config ~target ~demand sequential))

let test_plan_validate_reports_wrong_final_state () =
  let nodes = mk_nodes 1 in
  let vms = mk_vms [ 512 ] in
  let config = Configuration.make ~nodes ~vms in
  let demand = demand_all config 10 in
  let target = Configuration.with_states config [| Configuration.Running 0 |] in
  let findings = Verifier.verify ~current:config ~target ~demand Plan.empty in
  check_bool "missing action pinned with both states" true
    (List.exists
       (function
         | Verifier.Wrong_final_state
             { vm = 0; expected = Configuration.Running 0; got } ->
           got = Configuration.state config 0
         | _ -> false)
       findings)

let test_plan_validate_reports_invalid_application () =
  let nodes = mk_nodes 1 in
  let vms = mk_vms [ 512 ] in
  let config = Configuration.make ~nodes ~vms in
  let demand = demand_all config 10 in
  (* resuming a waiting VM is invalid *)
  let bad = Action.Resume { vm = 0; src = 0; dst = 0 } in
  let plan = Plan.make [ [ bad ] ] in
  let target = Configuration.with_states config [| Configuration.Running 0 |] in
  let findings = Verifier.verify ~current:config ~target ~demand plan in
  check_bool "invalid application pinned to pool 0" true
    (List.exists
       (function
         | Verifier.Invalid_application { pool = 0; action; reason } ->
           Action.equal action bad && reason <> ""
         | _ -> false)
       findings)

let test_plan_validate_accumulates_all_violations () =
  (* one plan, all three diagnostics at once: an over-committed pool, a
     misapplied action, and a final state short of the target *)
  let nodes = mk_nodes ~cpu:100 ~mem:1024 2 in
  let vms = mk_vms [ 768; 768; 512 ] in
  let config = Configuration.make ~nodes ~vms in
  let demand = demand_all config 10 in
  let target =
    Configuration.with_states config
      [|
        Configuration.Running 0; Configuration.Running 0;
        Configuration.Running 1;
      |]
  in
  let plan =
    Plan.make
      [
        [
          Action.Run { vm = 0; dst = 0 };
          Action.Run { vm = 1; dst = 0 };
          (* over-commits node 0 *)
          Action.Resume { vm = 2; src = 1; dst = 1 };
          (* vm2 is waiting, not sleeping *)
        ];
      ]
  in
  let findings = Verifier.verify ~current:config ~target ~demand plan in
  let count pred = List.length (List.filter pred findings) in
  check_int "one infeasible pool claim" 1
    (count (function Verifier.Claim_overflow _ -> true | _ -> false));
  check_int "one invalid application" 1
    (count (function Verifier.Invalid_application _ -> true | _ -> false));
  check_bool "vm2 never reaches its target" true
    (List.exists
       (function
         | Verifier.Wrong_final_state { vm = 2; _ } -> true
         | _ -> false)
       findings)

let test_rgraph_mismatched_vm_sets () =
  let a = Configuration.make ~nodes:(mk_nodes 1) ~vms:(mk_vms [ 512 ]) in
  let b = Configuration.make ~nodes:(mk_nodes 1) ~vms:(mk_vms [ 512; 512 ]) in
  check_bool "rejected" true
    (try
       ignore (Rgraph.actions ~current:a ~target:b);
       false
     with Invalid_argument _ -> true)

let test_config_with_states_arity () =
  let config = Configuration.make ~nodes:(mk_nodes 1) ~vms:(mk_vms [ 512 ]) in
  check_bool "arity checked" true
    (try
       ignore (Configuration.with_states config [||]);
       false
     with Invalid_argument _ -> true)

(* -- properties ----------------------------------------------------------- *)

(* Random scenario: nodes, VMs, a random current configuration and a
   random viable target; the planner must produce a valid plan. *)
let gen_scenario =
  QCheck.Gen.(
    let* n_nodes = int_range 2 6 in
    let* n_vms = int_range 1 10 in
    let* mems = list_repeat n_vms (oneofl [ 256; 512; 1024; 2048 ]) in
    let* cpus = list_repeat n_vms (oneofl [ 0; 20; 50; 100 ]) in
    let* states = list_repeat n_vms (int_range 0 2) in
    let* placements = list_repeat n_vms (int_range 0 (n_nodes - 1)) in
    return (n_nodes, mems, cpus, states, placements))

let scenario_print (n_nodes, mems, cpus, states, placements) =
  Printf.sprintf "nodes=%d mems=%s cpus=%s states=%s placements=%s" n_nodes
    (String.concat "," (List.map string_of_int mems))
    (String.concat "," (List.map string_of_int cpus))
    (String.concat "," (List.map string_of_int states))
    (String.concat "," (List.map string_of_int placements))

let build_scenario (n_nodes, mems, cpus, states, placements) =
  let nodes = mk_nodes n_nodes in
  let vms = mk_vms mems in
  let config = Configuration.make ~nodes ~vms in
  let demand = Demand.of_fn ~vm_count:(List.length mems) (List.nth cpus) in
  (* current config: place greedily, respecting viability; VMs that do
     not fit stay waiting; state code 0 = waiting, 1 = running, 2 =
     sleeping on the chosen node *)
  let config =
    List.fold_left
      (fun cfg (vm_id, (state, node)) ->
        match state with
        | 1 ->
          let cpu = Demand.cpu demand vm_id in
          let mem = Vm.memory_mb (Configuration.vm cfg vm_id) in
          if Configuration.fits cfg demand ~cpu ~mem node then
            Configuration.set_state cfg vm_id (Configuration.Running node)
          else cfg
        | 2 -> Configuration.set_state cfg vm_id (Configuration.Sleeping node)
        | _ -> cfg)
      config
      (List.mapi (fun i (s, p) -> (i, (s, p))) (List.combine states placements))
  in
  (config, demand)

let prop_ffd_configs_are_viable =
  QCheck.Test.make ~name:"RJSP FFD configurations are viable" ~count:300
    (QCheck.make ~print:scenario_print gen_scenario)
    (fun scenario ->
      let config, demand = build_scenario scenario in
      let queue =
        List.mapi
          (fun i _ ->
            Vjob.make ~id:i ~name:(Printf.sprintf "j%d" i) ~vms:[ i ]
              ~submit_time:(float_of_int i) ())
          (Array.to_list (Configuration.vms config))
      in
      let outcome = Rjsp.solve ~config ~demand ~queue () in
      Configuration.is_viable outcome.Rjsp.ffd_config demand)

let prop_planner_plans_are_valid =
  QCheck.Test.make ~name:"plans between random configurations are valid"
    ~count:300
    (QCheck.make ~print:scenario_print gen_scenario)
    (fun scenario ->
      let config, demand = build_scenario scenario in
      let queue =
        List.mapi
          (fun i _ ->
            Vjob.make ~id:i ~name:(Printf.sprintf "j%d" i) ~vms:[ i ]
              ~submit_time:(float_of_int i) ())
          (Array.to_list (Configuration.vms config))
      in
      let outcome = Rjsp.solve ~config ~demand ~queue () in
      let target =
        Rgraph.normalize_sleeping ~current:config outcome.Rjsp.ffd_config
      in
      match Planner.build ~current:config ~target ~demand () with
      | plan -> Verifier.is_clean ~current:config ~target ~demand plan
      | exception Planner.Stuck _ ->
        (* acceptable only when a cycle truly has no pivot; rare with
           random data, treat as discard *)
        QCheck.assume_fail ())

let prop_optimizer_never_worse_than_ffd =
  QCheck.Test.make ~name:"optimised plan cost <= FFD plan cost" ~count:150
    (QCheck.make ~print:scenario_print gen_scenario)
    (fun scenario ->
      let config, demand = build_scenario scenario in
      let queue =
        List.mapi
          (fun i _ ->
            Vjob.make ~id:i ~name:(Printf.sprintf "j%d" i) ~vms:[ i ]
              ~submit_time:(float_of_int i) ())
          (Array.to_list (Configuration.vms config))
      in
      let outcome = Rjsp.solve ~config ~demand ~queue () in
      let target =
        Rgraph.normalize_sleeping ~current:config outcome.Rjsp.ffd_config
      in
      match Planner.build ~current:config ~target ~demand () with
      | exception Planner.Stuck _ -> QCheck.assume_fail ()
      | ffd_plan ->
        let ffd_cost = Plan.cost config ffd_plan in
        let result =
          Optimizer.optimize ~timeout:0.3 ~current:config ~demand
            ~placed:(List.concat_map Vjob.vms outcome.Rjsp.running)
            ~target_base:outcome.Rjsp.ffd_config
            ~fallback:outcome.Rjsp.ffd_config ()
        in
        result.Optimizer.cost <= ffd_cost
        && Configuration.is_viable result.Optimizer.target demand)

let prop_plan_cost_at_least_lower_bound =
  QCheck.Test.make ~name:"plan cost >= admissible lower bound" ~count:200
    (QCheck.make ~print:scenario_print gen_scenario)
    (fun scenario ->
      let config, demand = build_scenario scenario in
      let queue =
        List.mapi
          (fun i _ ->
            Vjob.make ~id:i ~name:(Printf.sprintf "j%d" i) ~vms:[ i ]
              ~submit_time:(float_of_int i) ())
          (Array.to_list (Configuration.vms config))
      in
      let outcome = Rjsp.solve ~config ~demand ~queue () in
      let target =
        Rgraph.normalize_sleeping ~current:config outcome.Rjsp.ffd_config
      in
      match Planner.build ~current:config ~target ~demand () with
      | exception Planner.Stuck _ -> QCheck.assume_fail ()
      | plan ->
        Plan.cost config plan >= Cost.lower_bound ~current:config ~target)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "entropy_core"
    [
      ( "model",
        [
          Alcotest.test_case "vm validation" `Quick test_vm_validation;
          Alcotest.test_case "testbed node" `Quick test_node_testbed;
          Alcotest.test_case "vjob validation" `Quick test_vjob_validation;
          Alcotest.test_case "fcfs order" `Quick test_vjob_fcfs_order;
          Alcotest.test_case "lifecycle transitions" `Quick
            test_lifecycle_transitions;
          Alcotest.test_case "ready pseudo-state" `Quick test_lifecycle_ready;
          Alcotest.test_case "between" `Quick test_lifecycle_between;
        ] );
      ( "configuration",
        [
          Alcotest.test_case "initial waiting" `Quick
            test_config_initial_waiting;
          Alcotest.test_case "dense ids" `Quick test_config_dense_ids_checked;
          Alcotest.test_case "loads and viability" `Quick
            test_config_loads_and_viability;
          Alcotest.test_case "cpu overload (fig 5)" `Quick
            test_config_cpu_overload;
          Alcotest.test_case "sleeping is free" `Quick
            test_config_sleeping_consumes_nothing;
          Alcotest.test_case "vjob state" `Quick test_config_vjob_state;
        ] );
      ( "action",
        [
          Alcotest.test_case "apply run" `Quick test_action_apply_run;
          Alcotest.test_case "full life cycle" `Quick
            test_action_apply_full_cycle;
          Alcotest.test_case "invalid application" `Quick
            test_action_apply_invalid;
          Alcotest.test_case "feasibility" `Quick test_action_feasibility;
          Alcotest.test_case "locality" `Quick test_action_is_local;
        ] );
      ( "cost",
        [
          Alcotest.test_case "table 1" `Quick test_cost_table1;
          Alcotest.test_case "pool is max" `Quick test_cost_pool_is_max;
          Alcotest.test_case "plan sequencing" `Quick
            test_cost_plan_sequencing;
          Alcotest.test_case "empty plan" `Quick test_cost_plan_empty;
          Alcotest.test_case "lower bound" `Quick test_cost_lower_bound;
        ] );
      ( "rgraph",
        [
          Alcotest.test_case "actions" `Quick test_rgraph_actions;
          Alcotest.test_case "no-op" `Quick test_rgraph_no_action_when_equal;
          Alcotest.test_case "impossible transition" `Quick
            test_rgraph_rejects_impossible;
          Alcotest.test_case "normalize sleeping" `Quick
            test_rgraph_normalize_sleeping;
        ] );
      ( "planner",
        [
          Alcotest.test_case "sequential constraint (fig 7)" `Quick
            test_planner_sequential_constraint;
          Alcotest.test_case "cycle bypass (fig 8)" `Quick
            test_planner_cycle_bypass;
          Alcotest.test_case "no pivot -> disk break" `Quick
            test_planner_no_pivot_breaks_via_disk;
          Alcotest.test_case "parallel pool" `Quick test_planner_parallel_pool;
          Alcotest.test_case "non-viable target" `Quick
            test_planner_pool_claims_against_start;
          Alcotest.test_case "suspend then resume" `Quick
            test_planner_suspend_then_resume_sequence;
          Alcotest.test_case "migration chain" `Quick
            test_planner_migration_chain;
          Alcotest.test_case "figure 9 pools" `Quick test_planner_figure9;
        ] );
      ( "plan-validate",
        [
          Alcotest.test_case "infeasible pool" `Quick
            test_plan_validate_reports_infeasible_pool;
          Alcotest.test_case "wrong final state" `Quick
            test_plan_validate_reports_wrong_final_state;
          Alcotest.test_case "invalid application" `Quick
            test_plan_validate_reports_invalid_application;
          Alcotest.test_case "all violations accumulate" `Quick
            test_plan_validate_accumulates_all_violations;
          Alcotest.test_case "mismatched vm sets" `Quick
            test_rgraph_mismatched_vm_sets;
          Alcotest.test_case "with_states arity" `Quick
            test_config_with_states_arity;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "groups resumes" `Quick
            test_consistency_groups_resumes;
          Alcotest.test_case "sorts pools" `Quick
            test_consistency_sorts_pools_by_vm_name;
        ] );
      ( "ffd",
        [
          Alcotest.test_case "basic placement" `Quick test_ffd_basic_placement;
          Alcotest.test_case "rejects overflow" `Quick
            test_ffd_rejects_overflow;
          Alcotest.test_case "decreasing order" `Quick
            test_ffd_decreasing_order_matters;
          Alcotest.test_case "keeps existing" `Quick
            test_ffd_keeps_existing_running;
          Alcotest.test_case "heuristic variants" `Quick
            test_ffd_heuristics_differ;
        ] );
      ( "rjsp",
        [
          Alcotest.test_case "fcfs prefix" `Quick test_rjsp_selects_fcfs_prefix;
          Alcotest.test_case "backfills smaller vjob" `Quick
            test_rjsp_skips_then_fits_later_vjob;
          Alcotest.test_case "re-evaluates sleeping" `Quick
            test_rjsp_reevaluates_sleeping;
          Alcotest.test_case "overload suspends last" `Quick
            test_rjsp_overload_suspends_last;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "prefers no move" `Quick
            test_optimizer_prefers_no_move;
          Alcotest.test_case "prefers local resume" `Quick
            test_optimizer_prefers_local_resume;
          Alcotest.test_case "respects viability" `Quick
            test_optimizer_respects_viability;
          Alcotest.test_case "beats ffd" `Quick
            test_optimizer_beats_ffd_on_relocation;
          Alcotest.test_case "empty placement" `Quick
            test_optimizer_empty_placed;
        ] );
      ( "decision+loop",
        [
          Alcotest.test_case "consolidation fixes overload" `Quick
            test_decision_consolidation_suspends_overload;
          Alcotest.test_case "stops finished vjobs" `Quick
            test_decision_stops_finished;
        ] );
      ( "properties",
        qsuite
          [
            prop_ffd_configs_are_viable;
            prop_planner_plans_are_valid;
            prop_optimizer_never_worse_than_ffd;
            prop_plan_cost_at_least_lower_bound;
          ] );
    ]

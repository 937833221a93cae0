(* Tests for lib/analysis: the independent plan verifier, the CP
   propagator sanitizer, and the model linter.

   The mutation tests are the point of the suite: a deliberately broken
   plan (mid-pool capacity violation) and deliberately broken
   propagators (untrailed mutation, unsubscribed read, non-idempotent
   pruning, silent wipeout) must each be caught by the corresponding
   pass, proving the analyses can actually fail. The clean-path tests
   then pin the kernel and the planner as finding-free. *)

open Entropy_core
module Verifier = Entropy_analysis.Verifier
module Sanitizer = Entropy_analysis.Sanitizer
module Linter = Entropy_analysis.Linter

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- fixtures ------------------------------------------------------------- *)

let mk_nodes ?(cpu = 200) ?(mem = 3584) n =
  Array.init n (fun i ->
      Node.make ~id:i ~name:(Printf.sprintf "N%d" i) ~cpu_capacity:cpu
        ~memory_mb:mem)

let mk_vms specs =
  Array.of_list
    (List.mapi
       (fun i m -> Vm.make ~id:i ~name:(Printf.sprintf "vm%d" i) ~memory_mb:m)
       specs)

(* Figure 7: two nodes, VM1 must suspend before VM0 can migrate *)
let fig7 () =
  let nodes = mk_nodes ~cpu:200 ~mem:2048 2 in
  let vms = mk_vms [ 1024; 1536 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 1) in
  let demand = Demand.uniform ~vm_count:2 50 in
  (config, demand)

(* Figure 8: two interdependent migrations requiring a bypass pivot *)
let fig8 () =
  let nodes = mk_nodes ~cpu:200 ~mem:2048 3 in
  let vms = mk_vms [ 1536; 1536 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 1) in
  let demand = Demand.uniform ~vm_count:2 50 in
  (config, demand)

let has pred findings = List.exists pred findings

let pp_findings fs = Fmt.str "%a" Verifier.pp_report fs

(* -- verifier: clean plans ------------------------------------------------- *)

let verify_planner_plan ?(vjobs = []) ~current ~demand target =
  let target = Rgraph.normalize_sleeping ~current target in
  let plan = Planner.build ~vjobs ~current ~target ~demand () in
  (plan, Verifier.verify ~vjobs ~current ~target ~demand plan)

let test_verifier_fig7_clean () =
  let config, demand = fig7 () in
  (* consolidate both VMs onto node 0: the planner suspends VM1 first *)
  let target = Configuration.set_state config 1 (Configuration.Sleeping 1) in
  let plan, findings = verify_planner_plan ~current:config ~demand target in
  Alcotest.(check string) "no findings" "" (pp_findings findings |> fun s ->
      if findings = [] then "" else s);
  check_int "rederived cost agrees" (Plan.cost config plan)
    (Verifier.rederive_cost config (Plan.pools plan))

let test_verifier_fig8_clean () =
  let config, demand = fig8 () in
  (* swap the two VMs: forces the bypass-migration cycle break *)
  let target = Configuration.set_state config 0 (Configuration.Running 1) in
  let target = Configuration.set_state target 1 (Configuration.Running 0) in
  let plan, findings = verify_planner_plan ~current:config ~demand target in
  check_bool
    (Fmt.str "bypass plan clean: %s" (pp_findings findings))
    true (findings = []);
  check_int "rederived cost agrees" (Plan.cost config plan)
    (Verifier.rederive_cost config (Plan.pools plan))

(* -- verifier: mutations --------------------------------------------------- *)

(* the mutation the verifier exists for: a swap squeezed into a single
   pool, so both migrations claim memory the other VM still occupies *)
let test_verifier_pool_overflow () =
  let nodes = mk_nodes ~cpu:100 ~mem:1024 2 in
  let vms = mk_vms [ 700; 700 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 1) in
  let target = Configuration.set_state config 0 (Configuration.Running 1) in
  let target = Configuration.set_state target 1 (Configuration.Running 0) in
  let demand = Demand.uniform ~vm_count:2 10 in
  let bad =
    Plan.make
      [
        [
          Action.Migrate { vm = 0; src = 0; dst = 1 };
          Action.Migrate { vm = 1; src = 1; dst = 0 };
        ];
      ]
  in
  let findings = Verifier.verify ~current:config ~target ~demand bad in
  check_bool "rejected" false (findings = []);
  let overflow_on node =
    has
      (function
        | Verifier.Claim_overflow
            { node = n; resource = Verifier.Mem; needed = 700; available = 324; _ }
          -> n = node
        | _ -> false)
      findings
  in
  check_bool "memory overflow on node 1" true (overflow_on 1);
  check_bool "memory overflow on node 0" true (overflow_on 0);
  (* the two-pool version (suspend-free direction does not exist here,
     but a pivot does): the planner's own answer must verify clean *)
  let plan, clean = verify_planner_plan ~current:config ~demand target in
  check_bool
    (Fmt.str "planner's version clean: %s" (pp_findings clean))
    true (clean = []);
  check_bool "planner avoided the single pool" true (Plan.pool_count plan > 1)

let test_verifier_lifecycle () =
  let config, demand = fig7 () in
  (* running VM0 cannot be Run again: illegal Figure 2 transition *)
  let bad = Plan.make [ [ Action.Run { vm = 0; dst = 0 } ] ] in
  let findings = Verifier.verify ~current:config ~target:config ~demand bad in
  check_bool "lifecycle violation found" true
    (has
       (function
         | Verifier.Lifecycle_violation { pool = 0; action = Action.Run _; _ }
           -> true
         | _ -> false)
       findings)

let test_verifier_duplicate_and_final_state () =
  let config, demand = fig7 () in
  let target = Configuration.set_state config 0 (Configuration.Running 1) in
  (* empty plan cannot reach the target *)
  let findings =
    Verifier.verify ~current:config ~target ~demand Plan.empty
  in
  check_bool "wrong final state" true
    (has
       (function
         | Verifier.Wrong_final_state
             {
               vm = 0;
               expected = Configuration.Running 1;
               got = Configuration.Running 0;
             } ->
           true
         | _ -> false)
       findings);
  (* the same action twice in one pool *)
  let twice =
    Plan.make
      [
        [
          Action.Migrate { vm = 0; src = 0; dst = 1 };
          Action.Migrate { vm = 0; src = 0; dst = 1 };
        ];
      ]
  in
  let findings = Verifier.verify ~current:config ~target ~demand twice in
  check_bool "duplicate VM action" true
    (has
       (function Verifier.Duplicate_vm_action _ -> true | _ -> false)
       findings)

let test_verifier_vjob_split () =
  let nodes = mk_nodes ~cpu:100 ~mem:2048 2 in
  let vms = mk_vms [ 512; 512 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let config = Configuration.set_state config 1 (Configuration.Running 1) in
  let target = Configuration.set_state config 0 (Configuration.Sleeping 0) in
  let target = Configuration.set_state target 1 (Configuration.Sleeping 1) in
  let demand = Demand.uniform ~vm_count:2 10 in
  let vjobs = [ Vjob.make ~id:0 ~name:"job" ~vms:[ 0; 1 ] () ] in
  let split =
    Plan.make
      [
        [ Action.Suspend { vm = 0; host = 0 } ];
        [ Action.Suspend { vm = 1; host = 1 } ];
      ]
  in
  let findings = Verifier.verify ~vjobs ~current:config ~target ~demand split in
  check_bool "split suspend flagged" true
    (has
       (function
         | Verifier.Vjob_split { vjob = "job"; kind = `Suspend; pools = [ 0; 1 ] }
           -> true
         | _ -> false)
       findings);
  let grouped =
    Plan.make
      [
        [
          Action.Suspend { vm = 0; host = 0 };
          Action.Suspend { vm = 1; host = 1 };
        ];
      ]
  in
  let findings =
    Verifier.verify ~vjobs ~current:config ~target ~demand grouped
  in
  check_bool
    (Fmt.str "grouped suspend clean: %s" (pp_findings findings))
    true (findings = [])

let test_verifier_off_graph_detour () =
  (* an action that is locally feasible pool by pool but off the
     reconfiguration graph: the plan reaches the target through
     feasible pools, and the detour is its only fault *)
  let nodes = mk_nodes ~cpu:200 ~mem:2048 3 in
  let vms = mk_vms [ 512 ] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let target = Configuration.set_state config 0 (Configuration.Running 1) in
  let demand = Demand.uniform ~vm_count:1 10 in
  let detour =
    Plan.make
      [
        [ Action.Migrate { vm = 0; src = 0; dst = 2 } ];
        [ Action.Migrate { vm = 0; src = 2; dst = 1 } ];
      ]
  in
  let findings = Verifier.verify ~current:config ~target ~demand detour in
  let off_graph = function Verifier.Off_graph_action _ -> true | _ -> false in
  check_bool "verifier flags the off-graph hop" true (has off_graph findings);
  check_bool "and nothing else" true (List.for_all off_graph findings)

(* -- verifier: figure 10 probe --------------------------------------------- *)

let test_verifier_fig10_probe () =
  match Vworkload.Generator.figure10_instances ~samples:1 ~vm_count:54 () with
  | [] -> Alcotest.fail "generator produced no instance"
  | { Vworkload.Generator.config; demand; vjobs } :: _ ->
    let outcome = Rjsp.solve ~config ~demand ~queue:vjobs () in
    let target =
      Rgraph.normalize_sleeping ~current:config outcome.Rjsp.ffd_config
    in
    let ffd_plan =
      Planner.build ~vjobs ~current:config ~target ~demand ()
    in
    let findings =
      Verifier.verify ~vjobs ~current:config ~target ~demand ffd_plan
    in
    check_bool
      (Fmt.str "FFD plan clean: %s" (pp_findings findings))
      true (findings = []);
    check_int "rederived FFD cost agrees" (Plan.cost config ffd_plan)
      (Verifier.rederive_cost config (Plan.pools ffd_plan));
    (* the optimizer's improved plan must verify clean too *)
    let result =
      Optimizer.optimize ~timeout:0.5 ~vjobs ~current:config ~demand
        ~placed:(List.concat_map Vjob.vms outcome.Rjsp.running)
        ~target_base:outcome.Rjsp.ffd_config
        ~fallback:outcome.Rjsp.ffd_config ()
    in
    let findings =
      Verifier.verify ~vjobs ~current:config ~target:result.Optimizer.target
        ~demand result.Optimizer.plan
    in
    check_bool
      (Fmt.str "optimized plan clean: %s" (pp_findings findings))
      true (findings = []);
    check_int "optimizer cost agrees with the verifier"
      result.Optimizer.cost
      (Verifier.rederive_cost config (Plan.pools result.Optimizer.plan))

(* -- sanitizer: mutations --------------------------------------------------- *)

open Fdcp

let has_s pred findings = List.exists pred findings

let pp_s fs =
  Fmt.str "%a" Fmt.(list ~sep:semi Sanitizer.pp_finding) fs

(* a propagator that narrows a domain behind the store's back: undo
   cannot restore it, the probe's snapshot comparison must notice *)
let test_sanitizer_catches_untrailed_write () =
  let store = Store.create () in
  let x = Store.new_var ~name:"x" store ~lo:0 ~hi:5 in
  let y = Store.new_var ~name:"y" store ~lo:0 ~hi:5 in
  let evil = Prop.make ~name:"evil_untrailed" (fun () -> ()) in
  let narrow (v : Var.t) =
    if Dom.size v.Var.dom > 1 then
      v.Var.dom <- Dom.keep_only (Dom.lo v.Var.dom) v.Var.dom
  in
  evil.Prop.run <-
    (fun () ->
      (* whichever variable the search binds, the other one is narrowed
         behind the store's back *)
      if Dom.is_bound x.Var.dom then narrow y
      else if Dom.is_bound y.Var.dom then narrow x);
  Store.post_on store evil ~on:[ (Prop.On_instantiate, [ x; y ]) ];
  let findings = Sanitizer.probe ~steps:40 ~seed:1 store in
  check_bool
    (Fmt.str "trail corruption found in: %s" (pp_s findings))
    true
    (has_s
       (function Sanitizer.Trail_corruption _ -> true | _ -> false)
       findings)

(* reads a variable it never subscribed to: pruning-relevant state it
   will never be woken on *)
let test_sanitizer_catches_unsubscribed_read () =
  let store = Store.create () in
  let x = Store.new_var ~name:"x" store ~lo:0 ~hi:3 in
  let y = Store.new_var ~name:"y" store ~lo:0 ~hi:3 in
  let peeker = Prop.make ~name:"peeker" (fun () -> ()) in
  peeker.Prop.run <- (fun () -> ignore (Var.lo y));
  Store.post_on store peeker ~on:[ (Prop.On_instantiate, [ x ]) ];
  let findings = Sanitizer.probe ~steps:20 ~seed:2 store in
  check_bool
    (Fmt.str "unsubscribed read found in: %s" (pp_s findings))
    true
    (has_s
       (function
         | Sanitizer.Unsubscribed_read { var = "y"; _ } -> true | _ -> false)
       findings)

(* keeps pruning at the fixpoint: relies on a wake-up it never asked for *)
let test_sanitizer_catches_non_idempotent () =
  let store = Store.create () in
  let x = Store.new_var ~name:"x" store ~lo:0 ~hi:9 in
  let y = Store.new_var ~name:"y" store ~lo:0 ~hi:9 in
  let creep = Prop.make ~name:"creep" (fun () -> ()) in
  creep.Prop.run <-
    (fun () ->
      if Dom.size y.Var.dom > 1 then
        Store.remove_above store y (Dom.hi y.Var.dom - 1));
  Store.post_on store creep ~on:[ (Prop.On_instantiate, [ x ]) ];
  let findings = Sanitizer.probe ~steps:10 ~seed:3 store in
  check_bool
    (Fmt.str "non-idempotence found in: %s" (pp_s findings))
    true
    (has_s
       (function
         | Sanitizer.Non_idempotent { var = "y"; _ } -> true | _ -> false)
       findings)

(* empties a domain without raising Inconsistent *)
let test_sanitizer_catches_silent_wipeout () =
  let store = Store.create () in
  let x = Store.new_var ~name:"x" store ~lo:0 ~hi:3 in
  let y = Store.new_var ~name:"y" store ~lo:0 ~hi:3 in
  let eraser = Prop.make ~name:"eraser" (fun () -> ()) in
  eraser.Prop.run <-
    (fun () -> if Dom.is_bound x.Var.dom then y.Var.dom <- Dom.empty);
  Store.post_on store eraser ~on:[ (Prop.On_instantiate, [ x ]) ];
  let findings = Sanitizer.probe ~steps:20 ~seed:4 store in
  check_bool
    (Fmt.str "silent wipeout found in: %s" (pp_s findings))
    true
    (has_s
       (function
         | Sanitizer.Silent_wipeout { var = "y" } -> true | _ -> false)
       findings)

(* shared by the sweep and its coverage test, so both see the same models *)
let sweep_models = 25
let sweep_seed = 1789

(* the kernel's own propagators must survive the randomized sweep *)
let test_sanitizer_kernel_clean () =
  let findings =
    Sanitizer.random_sweep ~models:sweep_models ~steps:25 ~seed:sweep_seed ()
  in
  check_bool
    (Fmt.str "kernel sweep clean: %s" (pp_s findings))
    true (findings = [])

(* The propagator families posted on a store, read off its variables'
   watchers. Pack is the one Expensive propagator and is named by its
   caller (the optimizer posts "cpu" and "mem"), so it is keyed by its
   priority instead. *)
let families store =
  List.concat_map
    (fun (v : Var.t) ->
      List.map
        (fun { Var.prop = (p : Prop.t); _ } ->
          match p.Prop.priority with
          | Prop.Expensive -> "pack"
          | Prop.Cheap -> p.Prop.name)
        v.Var.watchers)
    (Store.vars store)
  |> List.sort_uniq String.compare

(* The optimizer's model on [examples/cluster.ecl] (spread and quota
   rules) and on the 54-VM / 15-node seed-42 probe. *)
let production_families () =
  let model ?rules ~config ~demand vjobs =
    let outcome = Rjsp.solve ?rules ~config ~demand ~queue:vjobs () in
    (Optimizer.build_model ?rules ~current:config ~demand
       ~placed:(List.concat_map Vjob.vms outcome.Rjsp.running)
       ~target_base:outcome.Rjsp.ffd_config ())
      .Optimizer.store
  in
  let fixture =
    let { Entropy_cli.Spec.config; demand; vjobs; rules; _ } =
      Entropy_cli.Spec.load "../../examples/cluster.ecl"
    in
    model ~rules ~config ~demand vjobs
  in
  let probe54 =
    let { Vworkload.Generator.config; demand; vjobs } =
      Vworkload.Generator.generate
        {
          Vworkload.Generator.default_spec with
          node_count = 15;
          vm_target = 54;
          seed = 42;
        }
    in
    model ~config ~demand vjobs
  in
  List.sort_uniq String.compare (families fixture @ families probe54)

(* Every family production posts is probed by the tier-1 sweep, in a
   model whose root fixpoint holds (the probe checks nothing past a
   failed root). Guards the sweep's family list against a trim that
   drops one the optimizer relies on. *)
let test_sanitizer_sweep_covers_production () =
  let production = production_families () in
  List.iter
    (fun family ->
      check_bool ("production posts " ^ family) true
        (List.mem family production))
    [ "pack"; "count_at_most"; "movecost" ];
  let swept =
    Sanitizer.random_models ~models:sweep_models ~seed:sweep_seed ()
    |> List.concat_map (fun store ->
           match Store.propagate store with
           | () -> families store
           | exception Store.Inconsistent _ -> [])
  in
  List.iter
    (fun family ->
      check_bool ("sweep probes " ^ family) true (List.mem family swept))
    production

(* -- linter ----------------------------------------------------------------- *)

let pp_l fs = Fmt.str "%a" Linter.pp_report fs

let test_linter_constant_and_unconstrained () =
  let store = Store.create () in
  let _fixed = Store.new_var ~name:"fixed" store ~lo:7 ~hi:7 in
  let _free = Store.new_var ~name:"free" store ~lo:0 ~hi:5 in
  let _const = Store.constant store 3 in
  let findings = Linter.lint store in
  check_bool "posted-fixed variable flagged" true
    (List.exists
       (function
         | Linter.Constant_var { var = "fixed"; value = 7 } -> true
         | _ -> false)
       findings);
  check_bool "unwatched variable flagged" true
    (List.exists
       (function
         | Linter.Unconstrained_var { var = "free" } -> true | _ -> false)
       findings);
  check_bool "Store.constant is exempt" true
    (not
       (List.exists
          (function
            | Linter.Constant_var { value = 3; _ } -> true | _ -> false)
          findings))

let test_linter_duplicate_constraint () =
  let store = Store.create () in
  let x = Store.new_var ~name:"x" store ~lo:0 ~hi:5 in
  let y = Store.new_var ~name:"y" store ~lo:0 ~hi:5 in
  Arith.le store x y;
  Arith.le store x y;
  let findings = Linter.lint store in
  check_bool
    (Fmt.str "duplicate flagged in: %s" (pp_l findings))
    true
    (List.exists
       (function Linter.Duplicate_constraint _ -> true | _ -> false)
       findings);
  (* opposite directions are not duplicates *)
  let store = Store.create () in
  let x = Store.new_var ~name:"x" store ~lo:0 ~hi:5 in
  let y = Store.new_var ~name:"y" store ~lo:0 ~hi:5 in
  let obj = Store.new_var ~name:"obj" store ~lo:0 ~hi:10 in
  Linear.sum_var store [ (1, x); (1, y) ] obj;
  let findings = Linter.lint ~obj store in
  check_bool
    (Fmt.str "objective channeling not a duplicate: %s" (pp_l findings))
    true
    (not
       (List.exists
          (function Linter.Duplicate_constraint _ -> true | _ -> false)
          findings))

let test_linter_dead_and_untouched () =
  let store = Store.create () in
  let x = Store.new_var ~name:"x" store ~lo:0 ~hi:10 in
  let y = Store.new_var ~name:"y" store ~lo:0 ~hi:10 in
  Linear.sum_eq store [ (1, x); (1, y) ] 0;
  let findings = Linter.lint store in
  check_bool
    (Fmt.str "dead propagator flagged in: %s" (pp_l findings))
    true
    (List.exists
       (function Linter.Dead_propagator _ -> true | _ -> false)
       findings);
  (* the lint's propagation must have been undone *)
  check_int "x untouched" 10 (Var.hi x);
  check_int "y untouched" 10 (Var.hi y)

let test_linter_inconsistent_and_unbounded () =
  let store = Store.create () in
  let x = Store.new_var ~name:"x" store ~lo:0 ~hi:5 in
  Linear.sum_le store [ (1, x) ] (-1);
  let findings = Linter.lint store in
  Alcotest.(check (list string))
    "root inconsistency flagged, with the failure's text"
    [ "linear_le: minimal sum 0 exceeds bound -1" ]
    (List.filter_map
       (function
         | Linter.Inconsistent_model { message } -> Some message | _ -> None)
       findings);
  let store = Store.create () in
  let x = Store.new_var ~name:"x" store ~lo:0 ~hi:5 in
  let obj = Store.new_var ~name:"obj" store ~lo:0 ~hi:10_000_000 in
  Arith.le store x obj;
  let findings = Linter.lint ~obj store in
  check_bool
    (Fmt.str "unbounded objective flagged in: %s" (pp_l findings))
    true
    (List.exists
       (function
         | Linter.Unbounded_objective { var = "obj"; _ } -> true | _ -> false)
       findings)

(* the optimizer's own model must lint clean *)
let test_linter_optimizer_model_clean () =
  let config, demand = fig7 () in
  let vjobs = [ Vjob.make ~id:0 ~name:"job" ~vms:[ 0; 1 ] () ] in
  let outcome = Rjsp.solve ~config ~demand ~queue:vjobs () in
  let model =
    Optimizer.build_model ~current:config ~demand
      ~placed:(List.concat_map Vjob.vms outcome.Rjsp.running)
      ~target_base:outcome.Rjsp.ffd_config ()
  in
  check_bool "model has placement variables" true
    (Array.length model.Optimizer.hvars > 0);
  let findings = Linter.lint ~obj:model.Optimizer.obj model.Optimizer.store in
  check_bool
    (Fmt.str "optimizer model lints clean: %s" (pp_l findings))
    true (findings = [])

(* -- suite ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analysis"
    [
      ( "verifier",
        [
          Alcotest.test_case "fig7 planner plan clean" `Quick
            test_verifier_fig7_clean;
          Alcotest.test_case "fig8 bypass plan clean" `Quick
            test_verifier_fig8_clean;
          Alcotest.test_case "mid-pool overflow rejected" `Quick
            test_verifier_pool_overflow;
          Alcotest.test_case "lifecycle violation rejected" `Quick
            test_verifier_lifecycle;
          Alcotest.test_case "duplicate action / final state" `Quick
            test_verifier_duplicate_and_final_state;
          Alcotest.test_case "vjob split flagged" `Quick
            test_verifier_vjob_split;
          Alcotest.test_case "off-graph detour flagged" `Quick
            test_verifier_off_graph_detour;
          Alcotest.test_case "figure 10 probe verifies clean" `Slow
            test_verifier_fig10_probe;
        ] );
      ( "sanitizer",
        [
          Alcotest.test_case "untrailed write caught" `Quick
            test_sanitizer_catches_untrailed_write;
          Alcotest.test_case "unsubscribed read caught" `Quick
            test_sanitizer_catches_unsubscribed_read;
          Alcotest.test_case "non-idempotent propagator caught" `Quick
            test_sanitizer_catches_non_idempotent;
          Alcotest.test_case "silent wipeout caught" `Quick
            test_sanitizer_catches_silent_wipeout;
          Alcotest.test_case "kernel survives randomized sweep" `Slow
            test_sanitizer_kernel_clean;
          Alcotest.test_case "sweep covers production families" `Quick
            test_sanitizer_sweep_covers_production;
        ] );
      ( "linter",
        [
          Alcotest.test_case "constant and unconstrained vars" `Quick
            test_linter_constant_and_unconstrained;
          Alcotest.test_case "duplicate constraints" `Quick
            test_linter_duplicate_constraint;
          Alcotest.test_case "dead propagator, store untouched" `Quick
            test_linter_dead_and_untouched;
          Alcotest.test_case "inconsistent and unbounded" `Quick
            test_linter_inconsistent_and_unbounded;
          Alcotest.test_case "optimizer model lints clean" `Quick
            test_linter_optimizer_model_clean;
        ] );
    ]

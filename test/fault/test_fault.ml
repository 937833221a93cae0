(* Tests for the fault-injection library: injector determinism and
   model composition, supervisor policy arithmetic and outcome
   classification, plan salvage and FFD replanning, and the core salvage
   primitives they build on. *)

open Entropy_core
module Injector = Entropy_fault.Injector
module Supervisor = Entropy_fault.Supervisor
module Repair = Entropy_fault.Repair

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float eps = Alcotest.(check (float eps))

let invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* a deterministic mixed action sequence *)
let actions =
  List.init 40 (fun i ->
      match i mod 4 with
      | 0 -> Action.Run { vm = i; dst = 0 }
      | 1 -> Action.Migrate { vm = i; src = 0; dst = 1 }
      | 2 -> Action.Suspend { vm = i; host = 0 }
      | _ -> Action.Stop { vm = i; host = 1 })

let fail_pattern inj =
  List.map (fun a -> (Injector.decide inj a).Injector.fail) actions

(* -- injector ---------------------------------------------------------------- *)

let test_injector_deterministic () =
  let mk () = Injector.create ~seed:7 [ Injector.Fail_rate { kind = None; rate = 0.5 } ] in
  Alcotest.(check (list bool))
    "same seed, same decisions"
    (fail_pattern (mk ())) (fail_pattern (mk ()));
  let other =
    Injector.create ~seed:8 [ Injector.Fail_rate { kind = None; rate = 0.5 } ]
  in
  check_bool "different seed diverges" false
    (fail_pattern (mk ()) = fail_pattern other)

let test_injector_none () =
  check_bool "is_none" true (Injector.is_none Injector.none);
  List.iter
    (fun a ->
      let d = Injector.decide Injector.none a in
      check_bool "never fails" false d.Injector.fail;
      check_float 1e-9 "nominal speed" 1. d.Injector.slowdown)
    actions;
  check_int "short-circuit counts nothing" 0 (Injector.decided Injector.none)

let test_injector_rate_bounds () =
  let always = Injector.create [ Injector.Fail_rate { kind = None; rate = 1.0 } ] in
  let never = Injector.create [ Injector.Fail_rate { kind = None; rate = 0.0 } ] in
  check_bool "rate 1 always fails" true
    (List.for_all (fun f -> f) (fail_pattern always));
  check_bool "rate 0 never fails" true
    (List.for_all not (fail_pattern never))

let test_injector_fail_nth () =
  let inj =
    Injector.create [ Injector.Fail_nth { kind = Injector.Migrate; nth = 2 } ]
  in
  let migrate vm = Action.Migrate { vm; src = 0; dst = 1 } in
  check_bool "1st migrate ok" false (Injector.decide inj (migrate 0)).Injector.fail;
  check_bool "runs not counted" false
    (Injector.decide inj (Action.Run { vm = 9; dst = 0 })).Injector.fail;
  check_bool "2nd migrate fails" true (Injector.decide inj (migrate 1)).Injector.fail;
  check_bool "3rd migrate ok" false (Injector.decide inj (migrate 2)).Injector.fail

let test_injector_slowdown_composes () =
  let inj =
    Injector.create
      [
        Injector.Slowdown { kind = None; factor = 2. };
        Injector.Slowdown { kind = Some Injector.Migrate; factor = 3. };
      ]
  in
  let d = Injector.decide inj (Action.Migrate { vm = 0; src = 0; dst = 1 }) in
  check_bool "slowdown does not fail" false d.Injector.fail;
  check_float 1e-9 "factors multiply" 6. d.Injector.slowdown;
  let d = Injector.decide inj (Action.Run { vm = 1; dst = 0 }) in
  check_float 1e-9 "only the generic model" 2. d.Injector.slowdown

let test_injector_predicate () =
  let inj =
    Injector.of_predicate (function Action.Migrate _ -> true | _ -> false)
  in
  check_bool "matches" true
    (Injector.decide inj (Action.Migrate { vm = 0; src = 0; dst = 1 })).Injector.fail;
  check_bool "others pass" false
    (Injector.decide inj (Action.Run { vm = 0; dst = 0 })).Injector.fail

let test_injector_node_crashes () =
  let inj =
    Injector.create
      [
        Injector.Crash_node { node = 3; at_s = 100. };
        Injector.Fail_rate { kind = None; rate = 0.1 };
        Injector.Crash_node { node = 1; at_s = 50. };
      ]
  in
  Alcotest.(check (list (pair int (float 1e-9))))
    "model order" [ (3, 100.); (1, 50.) ] (Injector.node_crashes inj)

let test_injector_crash_script () =
  let script =
    Injector.crash_script ~seed:5 ~node_count:20 ~horizon_s:3600. ~count:6 ()
  in
  let crashes = Injector.node_crashes (Injector.create script) in
  check_int "six crashes" 6 (List.length crashes);
  let nodes = List.map fst crashes in
  check_int "distinct nodes" 6 (List.length (List.sort_uniq compare nodes));
  check_bool "nodes in range" true
    (List.for_all (fun n -> n >= 0 && n < 20) nodes);
  let times = List.map snd crashes in
  check_bool "times inside the horizon" true
    (List.for_all (fun t -> t > 0. && t <= 3600.) times);
  check_bool "time ordered" true (List.sort Float.compare times = times);
  check_bool "deterministic" true
    (Injector.crash_script ~seed:5 ~node_count:20 ~horizon_s:3600. ~count:6 ()
    = script);
  check_bool "seed matters" true
    (Injector.crash_script ~seed:6 ~node_count:20 ~horizon_s:3600. ~count:6 ()
    <> script);
  check_bool "too many crashes rejected" true
    (invalid (fun () ->
         Injector.crash_script ~seed:0 ~node_count:3 ~horizon_s:10. ~count:4 ()));
  check_bool "bad horizon rejected" true
    (invalid (fun () ->
         Injector.crash_script ~seed:0 ~node_count:3 ~horizon_s:0. ~count:1 ()))

let test_injector_validation () =
  check_bool "rate > 1" true
    (invalid (fun () ->
         Injector.create [ Injector.Fail_rate { kind = None; rate = 1.5 } ]));
  check_bool "nth = 0" true
    (invalid (fun () ->
         Injector.create [ Injector.Fail_nth { kind = Injector.Run; nth = 0 } ]));
  check_bool "slowdown < 1" true
    (invalid (fun () ->
         Injector.create [ Injector.Slowdown { kind = None; factor = 0.5 } ]));
  check_bool "negative crash time" true
    (invalid (fun () ->
         Injector.create [ Injector.Crash_node { node = 0; at_s = -1. } ]))

let test_kind_round_trip () =
  List.iter
    (fun k ->
      Alcotest.(check (option string))
        "round trip"
        (Some (Injector.kind_to_string k))
        (Option.map Injector.kind_to_string
           (Injector.kind_of_string (Injector.kind_to_string k))))
    [
      Injector.Run; Injector.Stop; Injector.Migrate; Injector.Suspend;
      Injector.Resume; Injector.Suspend_ram; Injector.Resume_ram;
    ];
  Alcotest.(check (option string))
    "unknown" None
    (Option.map Injector.kind_to_string (Injector.kind_of_string "reboot"))

(* -- supervisor --------------------------------------------------------------- *)

let test_supervisor_timeout () =
  check_float 1e-9 "3x expected" 30.
    (Supervisor.timeout_s Supervisor.default_policy ~expected_s:10.);
  check_bool "an infinite factor never times out" true
    (Supervisor.timeout_s
       (Supervisor.make_policy ~timeout_factor:infinity ~max_retries:0 ())
       ~expected_s:10.
    = infinity)

let test_supervisor_backoff_doubles_and_caps () =
  check_float 1e-9 "first" 5. (Supervisor.backoff_s ~attempt:1);
  check_float 1e-9 "second" 10. (Supervisor.backoff_s ~attempt:2);
  check_float 1e-9 "third" 20. (Supervisor.backoff_s ~attempt:3);
  (* 5 * 2^4 = 80 is capped at 60 *)
  check_float 1e-9 "capped" 60. (Supervisor.backoff_s ~attempt:5)

(* Regression: far past the cap boundary the doubling term overflows to
   infinity, and the cap must still win — the delay stays the constant
   60 s cap, finite, so scheduling retry n at [now + backoff]
   never overflows simulated time. *)
let test_supervisor_backoff_at_cap_boundary () =
  let p = Supervisor.make_policy ~max_retries:10_000 () in
  check_float 1e-9 "deep retry is capped" 60.
    (Supervisor.backoff_s ~attempt:200);
  check_float 1e-9 "overflow-deep retry is capped" 60.
    (Supervisor.backoff_s ~attempt:10_000);
  check_bool "capped backoff is finite" true
    (Float.is_finite (Supervisor.backoff_s ~attempt:10_000));
  (* constant past the cap: attempt n and n+1 give the same delay *)
  check_float 1e-9 "constant past the cap"
    (Supervisor.backoff_s ~attempt:500)
    (Supervisor.backoff_s ~attempt:501);
  match Supervisor.next p ~attempts:9_000 Supervisor.Fault_injected with
  | `Retry d -> check_float 1e-9 "next at depth retries with the cap" 60. d
  | `Done _ -> Alcotest.fail "expected a retry under a huge retry budget"

let test_supervisor_next_classification () =
  let p = Supervisor.default_policy in
  (match Supervisor.next p ~attempts:2 Supervisor.Succeeded with
  | `Done (Supervisor.Completed { retries }) -> check_int "retries" 1 retries
  | _ -> Alcotest.fail "expected Completed");
  (match Supervisor.next p ~attempts:1 Supervisor.Fault_injected with
  | `Retry d -> check_float 1e-9 "backoff" 5. d
  | `Done _ -> Alcotest.fail "expected a retry");
  (* max_retries = 2: the third attempt is the last *)
  (match Supervisor.next p ~attempts:3 Supervisor.Fault_injected with
  | `Done (Supervisor.Failed { attempts }) -> check_int "attempts" 3 attempts
  | _ -> Alcotest.fail "expected Failed");
  (match Supervisor.next p ~attempts:3 Supervisor.Attempt_timed_out with
  | `Done (Supervisor.Timed_out { attempts }) -> check_int "attempts" 3 attempts
  | _ -> Alcotest.fail "expected Timed_out");
  match
    Supervisor.next
      (Supervisor.make_policy ~timeout_factor:infinity ~max_retries:0 ())
      ~attempts:1 Supervisor.Fault_injected
  with
  | `Done (Supervisor.Failed { attempts }) -> check_int "one shot" 1 attempts
  | _ -> Alcotest.fail "no retries must be terminal"

let test_supervisor_succeeded () =
  check_bool "completed" true (Supervisor.succeeded (Supervisor.Completed { retries = 0 }));
  check_bool "failed" false (Supervisor.succeeded (Supervisor.Failed { attempts = 1 }));
  check_bool "node lost" false (Supervisor.succeeded (Supervisor.Node_lost { node = 0 }))

let test_supervisor_validation () =
  check_bool "zero factor" true
    (invalid (fun () -> Supervisor.make_policy ~timeout_factor:0. ()));
  check_bool "negative retries" true
    (invalid (fun () -> Supervisor.make_policy ~max_retries:(-1) ()))

(* -- salvage primitives (core) ------------------------------------------------- *)

let testbed_nodes n =
  Array.init n (fun i -> Node.testbed ~id:i ~name:(Printf.sprintf "N%d" i))

let mk_config ~nodes ~vm_count states =
  let vms =
    Array.init vm_count (fun i ->
        Vm.make ~id:i ~name:(Printf.sprintf "vm%d" i) ~memory_mb:512)
  in
  let config = Configuration.make ~nodes:(testbed_nodes nodes) ~vms in
  List.fold_left
    (fun cfg (vm, st) -> Configuration.set_state cfg vm st)
    config
    (List.mapi (fun i st -> (i, st)) states)

let test_salvage_target_pins_frozen () =
  let current =
    mk_config ~nodes:3 ~vm_count:2
      [ Configuration.Running 0; Configuration.Running 0 ]
  in
  let target =
    mk_config ~nodes:3 ~vm_count:2
      [ Configuration.Running 1; Configuration.Running 2 ]
  in
  let salvaged =
    Rgraph.salvage_target ~current ~target ~frozen:(fun vm -> vm = 0)
  in
  check_bool "frozen VM pinned to current" true
    (Configuration.state salvaged 0 = Configuration.Running 0);
  check_bool "other VM keeps its target" true
    (Configuration.state salvaged 1 = Configuration.Running 2)

(* -- repair -------------------------------------------------------------------- *)

let demand2 = Demand.uniform ~vm_count:2 60

let test_repair_salvages_survivors () =
  (* both VMs should move to N1; vm0's migration failed. The salvaged
     plan moves only vm1 and leaves vm0 pinned on N0. *)
  let current =
    mk_config ~nodes:3 ~vm_count:2
      [ Configuration.Running 0; Configuration.Running 0 ]
  in
  let target =
    mk_config ~nodes:3 ~vm_count:2
      [ Configuration.Running 1; Configuration.Running 1 ]
  in
  match Repair.salvage ~current ~target ~demand:demand2 ~failed_vms:[ 0 ] () with
  | None -> Alcotest.fail "expected a salvaged plan"
  | Some o ->
    check_bool "salvaged" true (o.Repair.source = `Salvaged);
    check_int "one surviving action" 1 (Plan.action_count o.Repair.plan);
    check_bool "frozen VM stays" true
      (Configuration.state o.Repair.target 0 = Configuration.Running 0);
    check_bool "survivor reaches target" true
      (Configuration.state o.Repair.target 1 = Configuration.Running 1)

let test_repair_salvage_empty_falls_back () =
  (* the only remaining action failed: nothing survives, so repair falls
     back to an FFD replan that reissues work for the live queue *)
  let current = mk_config ~nodes:2 ~vm_count:1 [ Configuration.Waiting ] in
  let target = mk_config ~nodes:2 ~vm_count:1 [ Configuration.Running 0 ] in
  let demand = Demand.uniform ~vm_count:1 60 in
  let queue = [ Vjob.make ~id:0 ~name:"j0" ~vms:[ 0 ] () ] in
  check_bool "salvage finds nothing" true
    (Repair.salvage ~current ~target ~demand ~failed_vms:[ 0 ] () = None);
  match
    Repair.repair ~current ~target ~demand ~queue ~failed_vms:[ 0 ]
      ~lost_nodes:[] ()
  with
  | None -> Alcotest.fail "expected a replan"
  | Some o ->
    check_bool "replanned" true (o.Repair.source = `Replanned);
    check_bool "reissues the run" true (Plan.action_count o.Repair.plan >= 1)

let test_repair_lost_node_replans () =
  (* node 1 crashed: vm1 was reset to Waiting, the old target is void.
     Repair must go straight to a replan that avoids the dead node. *)
  let current =
    mk_config ~nodes:2 ~vm_count:2
      [ Configuration.Running 0; Configuration.Waiting ]
  in
  let dead = Configuration.nodes current in
  let dead =
    Array.mapi (fun i n -> if i = 1 then Node.crashed n else n) dead
  in
  let current = Configuration.with_nodes current dead in
  let target =
    mk_config ~nodes:2 ~vm_count:2
      [ Configuration.Running 0; Configuration.Running 1 ]
  in
  let queue =
    [
      Vjob.make ~id:0 ~name:"j0" ~vms:[ 0 ] ();
      Vjob.make ~id:1 ~name:"j1" ~vms:[ 1 ] ();
    ]
  in
  match
    Repair.repair ~current ~target ~demand:demand2 ~queue ~failed_vms:[]
      ~lost_nodes:[ 1 ] ()
  with
  | None -> Alcotest.fail "expected a replan"
  | Some o ->
    check_bool "replanned, not salvaged" true (o.Repair.source = `Replanned);
    check_bool "dead node unused" true
      (Configuration.state o.Repair.target 1 <> Configuration.Running 1
      && Configuration.state o.Repair.target 1 <> Configuration.Sleeping 1);
    List.iter
      (fun a ->
        match a with
        | Action.Run { dst; _ } | Action.Migrate { dst; _ }
        | Action.Resume { dst; _ } ->
          check_bool "no action lands on the dead node" true (dst <> 1)
        | Action.Stop _ | Action.Suspend _ | Action.Suspend_ram _
        | Action.Resume_ram _ -> ())
      (Plan.actions o.Repair.plan)

(* A reconciliation residue is clean only when it names no failed VM
   and no lost node. *)
let test_repair_residue () =
  check_bool "empty residue is ok" true
    (Repair.residue_ok { Repair.failed_vms = []; lost_nodes = [] });
  check_bool "failed VM is residue" false
    (Repair.residue_ok { Repair.failed_vms = [ 0 ]; lost_nodes = [] });
  check_bool "lost node is residue" false
    (Repair.residue_ok { Repair.failed_vms = []; lost_nodes = [ 1 ] })

(* -- node crash primitive ------------------------------------------------------- *)

let test_node_crashed_marker () =
  let n = Node.testbed ~id:0 ~name:"N0" in
  let dead = Node.crashed n in
  check_bool "zero capacity" true
    (Node.cpu_capacity dead = 0 && Node.memory_mb dead = 0);
  check_bool "is_crashed" true (Node.is_crashed dead);
  check_bool "live node is not" false (Node.is_crashed n)

(* -- run ------------------------------------------------------------------------ *)

let () =
  Alcotest.run "entropy_fault"
    [
      ( "injector",
        [
          Alcotest.test_case "deterministic" `Quick test_injector_deterministic;
          Alcotest.test_case "none" `Quick test_injector_none;
          Alcotest.test_case "rate bounds" `Quick test_injector_rate_bounds;
          Alcotest.test_case "fail nth" `Quick test_injector_fail_nth;
          Alcotest.test_case "slowdown composes" `Quick
            test_injector_slowdown_composes;
          Alcotest.test_case "predicate" `Quick test_injector_predicate;
          Alcotest.test_case "node crashes" `Quick test_injector_node_crashes;
          Alcotest.test_case "crash script" `Quick test_injector_crash_script;
          Alcotest.test_case "validation" `Quick test_injector_validation;
          Alcotest.test_case "kind round trip" `Quick test_kind_round_trip;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "timeout" `Quick test_supervisor_timeout;
          Alcotest.test_case "backoff" `Quick
            test_supervisor_backoff_doubles_and_caps;
          Alcotest.test_case "backoff at cap boundary" `Quick
            test_supervisor_backoff_at_cap_boundary;
          Alcotest.test_case "classification" `Quick
            test_supervisor_next_classification;
          Alcotest.test_case "succeeded" `Quick test_supervisor_succeeded;
          Alcotest.test_case "validation" `Quick test_supervisor_validation;
        ] );
      ( "salvage-primitives",
        [
          Alcotest.test_case "salvage_target pins" `Quick
            test_salvage_target_pins_frozen;
          Alcotest.test_case "crashed node marker" `Quick
            test_node_crashed_marker;
        ] );
      ( "repair",
        [
          Alcotest.test_case "salvages survivors" `Quick
            test_repair_salvages_survivors;
          Alcotest.test_case "empty salvage falls back" `Quick
            test_repair_salvage_empty_falls_back;
          Alcotest.test_case "lost node replans" `Quick
            test_repair_lost_node_replans;
          Alcotest.test_case "residue entry point" `Quick test_repair_residue;
        ] );
    ]

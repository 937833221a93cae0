(* Tests for the switch model checker: exhaustive exploration of a
   derived Fig. 10-style switch, counterexamples on deliberately broken
   plans with ddmin minimization, witness seed-file round trips, replay,
   crash-state coverage and executor conformance. *)

open Entropy_core
module Checker = Entropy_check.Checker
module Invariant = Entropy_check.Invariant
module Witness = Entropy_check.Witness
module Model = Entropy_check.Model
module Sim_check = Entropy_check.Sim_check
module Journal = Entropy_journal.Journal
module Record = Entropy_journal.Record

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let testbed_nodes n =
  Array.init n (fun i -> Node.testbed ~id:i ~name:(Printf.sprintf "N%d" i))

let mk_config ~nodes ~vm_count states =
  let vms =
    Array.init vm_count (fun i ->
        Vm.make ~id:i ~name:(Printf.sprintf "vm%d" i) ~memory_mb:512)
  in
  Configuration.with_states
    (Configuration.make ~nodes:(testbed_nodes nodes) ~vms)
    (Array.of_list states)

(* The generated instance the CLI and CI use: a small viable cluster,
   target and plan derived exactly as [entropyctl check] derives them. *)
let derived ~vms ~nodes ~seed =
  let { Vworkload.Generator.config = source; demand; vjobs } =
    Vworkload.Generator.generate
      {
        Vworkload.Generator.default_spec with
        node_count = nodes;
        vm_target = vms;
        seed;
      }
  in
  let outcome = Rjsp.solve ~rules:[] ~config:source ~demand ~queue:vjobs () in
  let target =
    Rgraph.normalize_sleeping ~current:source outcome.Rjsp.ffd_config
  in
  let plan = Planner.build ~vjobs ~current:source ~target ~demand () in
  (source, target, demand, vjobs, plan)

let has_invariant inv vs =
  List.exists (fun v -> v.Invariant.invariant = inv) vs

(* -- exhaustive verification of a clean switch ----------------------------- *)

let test_exhaustive_clean () =
  let source, target, demand, vjobs, plan = derived ~vms:6 ~nodes:3 ~seed:42 in
  check_bool "plan is non-trivial" true (Plan.action_count plan > 0);
  let limits = { Checker.default_limits with exhaustive = true } in
  let r = Checker.check ~vjobs ~limits ~source ~target ~demand plan in
  check_int "no violations" 0 (List.length r.Checker.violations);
  check_bool "exploration complete" true r.Checker.complete;
  (* every action is idle/in-flight/done independently inside a pool,
     so the reachable state count is exactly 3^pool_size summed over
     barriers; at minimum it dominates 2^actions *)
  check_bool "state space actually explored" true
    (r.Checker.stats.Checker.states > 1 lsl Plan.action_count plan);
  check_bool "crash cuts explored" true
    (r.Checker.stats.Checker.crash_checks > 0);
  check_bool "torn cuts explored" true (r.Checker.stats.Checker.torn_cuts > 0);
  check_bool "executor conformance ran" true
    (r.Checker.stats.Checker.sim_runs > 0)

(* The seed-4 instance (9 VMs, 3 nodes) needs disk-route cycle breaks.
   A post-pass that regrouped the vjobs' actions after planning once
   made one of them redundant, and crash cuts of the plan found the
   detour. The planner now groups as it selects pools; every
   interleaving and crash cut must stay clean. *)
let test_exhaustive_cycle_break () =
  let source, target, demand, vjobs, plan = derived ~vms:8 ~nodes:3 ~seed:4 in
  let limits = { Checker.default_limits with exhaustive = true } in
  let r = Checker.check ~vjobs ~limits ~source ~target ~demand plan in
  check_int "no violations" 0 (List.length r.Checker.violations);
  check_bool "exploration complete" true r.Checker.complete

let test_bounded_clean () =
  let source, target, demand, vjobs, plan = derived ~vms:6 ~nodes:3 ~seed:42 in
  let limits = { Checker.default_limits with depth = 4; sim_runs = 2 } in
  let r = Checker.check ~vjobs ~limits ~source ~target ~demand plan in
  check_int "no violations" 0 (List.length r.Checker.violations)

(* -- counterexamples on broken plans --------------------------------------- *)

(* A migration into a node that cannot hold it: both nodes run one
   150-cpu VM (capacity 200), the plan moves vm0 onto node 1, pushing
   it to 300 with no relative-overload excuse. *)
let overload_instance () =
  let source =
    mk_config ~nodes:2 ~vm_count:2 Configuration.[ Running 0; Running 1 ]
  in
  let target =
    mk_config ~nodes:2 ~vm_count:2 Configuration.[ Running 1; Running 1 ]
  in
  let demand = Demand.uniform ~vm_count:2 150 in
  let plan = Plan.make [ [ Action.Migrate { vm = 0; src = 0; dst = 1 } ] ] in
  (source, target, demand, plan)

let test_capacity_counterexample () =
  let source, target, demand, plan = overload_instance () in
  let limits =
    { Checker.default_limits with exhaustive = true; sim_runs = 0 }
  in
  (* the full catalogue flags it too... *)
  let r = Checker.check ~limits ~source ~target ~demand plan in
  check_bool "capacity violated" true
    (has_invariant Invariant.Capacity r.Checker.violations);
  (* ...and checking capacity alone pins the counterexample to it *)
  let r =
    Checker.check ~invariants:[ Invariant.Capacity ] ~limits ~source ~target
      ~demand plan
  in
  match r.Checker.counterexample with
  | None -> Alcotest.fail "expected a counterexample"
  | Some c ->
    check_bool "counterexample is the capacity violation" true
      (c.Checker.violation.Invariant.invariant = Invariant.Capacity);
    let steps = List.length c.Checker.minimized.Witness.steps in
    check_bool "minimized to at most 5 steps" true (steps <= 5);
    check_bool "minimized witness still reproduces" true
      (match
         Checker.replay
           (Model.make_ctx ~invariants:[ Invariant.Capacity ] ~source
              ~target ~demand plan)
           c.Checker.minimized
       with
      | Some vs -> has_invariant Invariant.Capacity vs
      | None -> false)

let test_lifecycle_counterexample () =
  (* resuming a VM that is already running is illegal *)
  let source =
    mk_config ~nodes:2 ~vm_count:1 Configuration.[ Running 0 ]
  in
  let target =
    mk_config ~nodes:2 ~vm_count:1 Configuration.[ Running 1 ]
  in
  let demand = Demand.uniform ~vm_count:1 10 in
  let plan = Plan.make [ [ Action.Resume { vm = 0; src = 0; dst = 1 } ] ] in
  let limits =
    { Checker.default_limits with exhaustive = true; sim_runs = 0 }
  in
  let r = Checker.check ~limits ~source ~target ~demand plan in
  check_bool "lifecycle violated" true
    (has_invariant Invariant.Lifecycle r.Checker.violations)

let test_invariant_filter () =
  (* with capacity filtered out, the overloading migration is "clean" *)
  let source, target, demand, plan = overload_instance () in
  let limits =
    { Checker.default_limits with exhaustive = true; sim_runs = 0 }
  in
  let r =
    Checker.check
      ~invariants:[ Invariant.Termination; Invariant.Precedence ]
      ~limits ~source ~target ~demand plan
  in
  check_int "no violations when capacity is not checked" 0
    (List.length r.Checker.violations)

(* -- witnesses ------------------------------------------------------------- *)

let test_witness_roundtrip () =
  let w =
    {
      Witness.steps = [ Witness.Start 2; Witness.Finish 2; Witness.Start 0 ];
      crash = Some { Witness.kept = 1; torn = Some 7 };
    }
  in
  let path = Filename.temp_file "entropy_check" ".json" in
  Witness.to_file path w;
  let w' = Witness.of_file path in
  Sys.remove path;
  check_bool "round-trips through the seed file" true (w = w');
  let no_crash = { w with Witness.crash = None } in
  check_bool "crashless witness round-trips" true
    (Witness.of_json (Witness.to_json no_crash) = no_crash)

let test_witness_malformed () =
  let raises =
    try
      ignore
        (Witness.of_json
           (Entropy_obs.Json.Obj
              [
                ( "steps",
                  Entropy_obs.Json.List
                    [ Entropy_obs.Json.String "sprint:1" ] );
                ("crash", Entropy_obs.Json.Null);
              ]));
      false
    with Witness.Malformed _ -> true
  in
  check_bool "bad step string raises Malformed" true raises

let test_replay_inexecutable () =
  let source, target, demand, plan = overload_instance () in
  let ctx = Model.make_ctx ~source ~target ~demand plan in
  (* finishing an action that was never started is not executable *)
  let w = { Witness.steps = [ Witness.Finish 0 ]; crash = None } in
  check_bool "inexecutable schedule yields None" true
    (Checker.replay ctx w = None)

let test_replay_clean () =
  let source, target, demand, vjobs, plan = derived ~vms:6 ~nodes:3 ~seed:42 in
  let ctx = Model.make_ctx ~vjobs ~source ~target ~demand plan in
  (* the canonical schedule: start then finish every action in order *)
  let n = Plan.action_count plan in
  let steps =
    List.concat
      (List.init n (fun i -> [ Witness.Start i; Witness.Finish i ]))
  in
  match Checker.replay ctx { Witness.steps; crash = None } with
  | None -> Alcotest.fail "canonical schedule must be executable"
  | Some vs -> check_int "clean replay" 0 (List.length vs)

(* -- crash exploration ----------------------------------------------------- *)

let test_crash_specs_on_clean_plan () =
  let source, target, demand, vjobs, plan = derived ~vms:6 ~nodes:3 ~seed:42 in
  let ctx = Model.make_ctx ~vjobs ~source ~target ~demand plan in
  (* run the canonical schedule halfway, then check explicit crash specs *)
  let n = Plan.action_count plan in
  let half = n / 2 in
  let steps =
    List.concat
      (List.init half (fun i -> [ Witness.Start i; Witness.Finish i ]))
    @ [ Witness.Start half ]
  in
  List.iter
    (fun crash ->
      match Checker.replay ctx { Witness.steps; crash = Some crash } with
      | None -> Alcotest.fail "schedule must be executable"
      | Some vs ->
        check_int
          (Printf.sprintf "crash kept=%d clean" crash.Witness.kept)
          0 (List.length vs))
    [ { Witness.kept = 0; torn = None }; { Witness.kept = 1; torn = None } ]

(* -- the model itself ------------------------------------------------------ *)

let test_model_pool_barrier () =
  (* two pools: the second pool's action is not enabled until the first
     pool drains *)
  let source =
    mk_config ~nodes:2 ~vm_count:2 Configuration.[ Running 0; Waiting ]
  in
  let target =
    mk_config ~nodes:2 ~vm_count:2 Configuration.[ Running 1; Running 0 ]
  in
  let demand = Demand.uniform ~vm_count:2 10 in
  let plan =
    Plan.make
      [
        [ Action.Migrate { vm = 0; src = 0; dst = 1 } ];
        [ Action.Run { vm = 1; dst = 0 } ];
      ]
  in
  let ctx = Model.make_ctx ~source ~target ~demand plan in
  let st0 = Model.init ctx in
  check_bool "only pool-0 starts enabled" true
    (Model.enabled ctx st0 = [ Witness.Start 0 ]);
  let st1, _ = Model.apply ctx st0 (Witness.Start 0) in
  let st2, _ = Model.apply ctx st1 (Witness.Finish 0) in
  check_bool "pool 1 opens after the barrier" true
    (Model.enabled ctx st2 = [ Witness.Start 1 ]);
  let st3, _ = Model.apply ctx st2 (Witness.Start 1) in
  let st4, _ = Model.apply ctx st3 (Witness.Finish 1) in
  check_bool "switch finished" true (Model.finished ctx st4);
  check_bool "no steps left" true (Model.enabled ctx st4 = [])

let test_model_independence () =
  let source, target, demand, plan = overload_instance () in
  let ctx = Model.make_ctx ~source ~target ~demand plan in
  check_bool "same action does not commute with itself" false
    (Model.independent ctx (Witness.Start 0) (Witness.Finish 0))

(* -- the executor's journals ---------------------------------------------- *)

(* Each [Switch_begin]'s context (with its switch id) and the records
   of that switch after it, in begin order. *)
let switches records =
  let begun = ref [] in
  List.iter
    (function
      | Record.Switch_begin { switch; source; target; plan; demand; _ } ->
        let ctx = Model.make_ctx ~source ~target ~demand plan in
        begun := ({ ctx with Model.switch }, ref []) :: !begun
      | r -> (
        let id = Record.switch r in
        match List.find_opt (fun (c, _) -> c.Model.switch = id) !begun with
        | Some (_, rs) -> rs := r :: !rs
        | None -> ()))
    records;
  List.rev_map (fun (ctx, rs) -> (ctx, List.rev !rs)) !begun

(* Every switch of a journal through [Model.accepts]: how many there
   are, the rejected ones with their violation, and the switch records
   of no begun switch (none in a journal the controller wrote). *)
let accept_journal path =
  let records, _ = Journal.load path in
  let switches = switches records in
  let rejected =
    List.filter_map
      (fun (ctx, rs) ->
        match Model.accepts ctx rs with
        | Ok _ -> None
        | Error v -> Some (ctx.Model.switch, v))
      switches
  in
  let in_switch = function
    | Record.Switch_begin _ | Record.Submission _ | Record.Ladder _ -> false
    | _ -> true
  in
  let orphans =
    List.length (List.filter in_switch records)
    - List.fold_left (fun n (_, rs) -> n + List.length rs) 0 switches
  in
  (List.length switches, rejected, orphans)

(* Prints the counts and each rejected switch; true when every switch
   is accepted and no record is outside one. *)
let report_journal path =
  let n, rejected, orphans = accept_journal path in
  Printf.printf "%s: %d switches, %d accepted, %d records outside a switch\n%!"
    path n (n - List.length rejected) orphans;
  List.iter
    (fun (id, v) ->
      Format.printf "  switch %d: %a@." id Invariant.pp_violation v)
    rejected;
  n > 0 && rejected = [] && orphans = 0

let test_journal_accepted path () =
  check_bool "every switch accepted" true (report_journal path)

(* A clean switch of the seed-0 burst journal with two pools or more,
   several actions in the first and no retry: the trace the edits below
   break. *)
let clean_trace () =
  let records, _ = Journal.load "../journal/burst0.wal" in
  let retry = function
    | Record.Action_started { attempt; _ } -> attempt > 1
    | _ -> false
  in
  List.find
    (fun (ctx, rs) ->
      ctx.Model.n_pools >= 2
      && List.length (List.hd (Plan.pools ctx.Model.plan)) >= 3
      && not (List.exists retry rs))
    (switches records)

let index p rs =
  let rec go i = function
    | [] -> Alcotest.fail "no such record"
    | r :: rest -> if p r then i else go (i + 1) rest
  in
  go 0 rs

let remove i rs = List.filteri (fun j _ -> j <> i) rs

let insert i r rs =
  List.concat (List.mapi (fun j x -> if j = i then [ r; x ] else [ x ]) rs)

let is_commit p = function
  | Record.Pool_committed { pool; _ } -> pool = p
  | _ -> false

let is_start p = function
  | Record.Action_started { pool; _ } -> pool = p
  | _ -> false

let is_done p = function
  | Record.Action_done { pool; _ } -> pool = p
  | _ -> false

let rejected_by inv (ctx, rs) =
  match Model.accepts ctx rs with
  | Ok _ -> Alcotest.fail "the edited trace was accepted"
  | Error v ->
    Format.printf "%a@." Invariant.pp_violation v;
    check_bool
      (Printf.sprintf "rejected on %s" (Invariant.to_string inv))
      true
      (v.Invariant.invariant = inv)

let test_edits_rejected () =
  let ctx, rs = clean_trace () in
  check_bool "the clean trace is accepted" true
    (Result.is_ok (Model.accepts ctx rs));
  let commit0 = index (is_commit 0) rs in
  (* an action of pool 1 starts before pool 0 is committed *)
  let start1 = index (is_start 1) rs in
  rejected_by Invariant.Precedence
    (ctx, insert commit0 (List.nth rs start1) (remove start1 rs));
  (* ... or before pool 0 drained *)
  rejected_by Invariant.Precedence
    (ctx, insert (commit0 - 1) (List.nth rs start1) (remove start1 rs));
  (* pool 0 is committed before its last terminal record *)
  rejected_by Invariant.Precedence
    (ctx, insert (commit0 - 1) (List.nth rs commit0) (remove commit0 rs));
  (* an action is done with no start *)
  rejected_by Invariant.Lifecycle (ctx, remove (index (is_start 0) rs) rs);
  (* one action gets a second terminal record *)
  let done0 = index (is_done 0) rs in
  rejected_by Invariant.Lifecycle
    (ctx, insert done0 (List.nth rs done0) rs)

(* The executor's steps the model explores no transition for: a retry,
   a terminal failure (in flight, or before the start when a node is
   lost), an aborted end at the pool boundary after a failure, and a
   kill that cuts the switch short. *)
let test_executor_steps_accepted () =
  let ctx, rs = clean_trace () in
  let failed = function
    | Record.Action_done { switch; pool; at_s; action } ->
      Record.Action_failed { switch; pool; at_s; action }
    | r -> r
  in
  let accepted what rs =
    match Model.accepts ctx rs with
    | Ok st -> st
    | Error v ->
      Alcotest.failf "%s rejected: %a" what Invariant.pp_violation v
  in
  (* a second attempt of the first action *)
  let start0 = index (is_start 0) rs in
  let retry =
    match List.nth rs start0 with
    | Record.Action_started r -> Record.Action_started { r with attempt = 2 }
    | _ -> assert false
  in
  ignore (accepted "a retry" (insert (start0 + 1) retry rs));
  (* the first action of pool 0 fails before it starts, the last one in
     flight; the switch aborts once pool 0 is committed *)
  let commit0 = index (is_commit 0) rs in
  let last_done0 = commit0 - 1 in
  let first_done0 = index (is_done 0) rs in
  let edited =
    List.mapi
      (fun i r -> if i = last_done0 || i = first_done0 then failed r else r)
      (List.filteri (fun i _ -> i <= commit0) rs)
  in
  let edited =
    (* drop the start of the action whose done is the first one *)
    let action_of = function
      | Record.Action_started { action; _ } | Record.Action_done { action; _ }
      | Record.Action_failed { action; _ } ->
        Some action
      | _ -> None
    in
    let a = action_of (List.nth rs first_done0) in
    List.filter
      (fun r -> not (is_start 0 r && action_of r = a))
      edited
  in
  let aborted =
    Record.Switch_end { switch = ctx.Model.switch; at_s = 0.; aborted = true }
  in
  let st = accepted "failures and an abort" (edited @ [ aborted ]) in
  check_int "two failed actions" 2
    (Array.fold_left
       (fun n s -> if s = Model.Failed then n + 1 else n)
       0 st.Model.status);
  (* without a failure, an aborted end is refused *)
  rejected_by Invariant.Termination
    (ctx, List.filteri (fun i _ -> i <= commit0) rs @ [ aborted ]);
  (* a switch cut off mid-pool is a prefix path *)
  ignore (accepted "a kill" (List.filteri (fun i _ -> i < commit0) rs))

(* A conformance run injects no fault, so the failures and the abort the
   model accepts from a faulty cluster are violations there: the last
   action's [Action_done] read as [Action_failed] is a path of the model
   but not a fault-free run. *)
let test_fault_free_failure_rejected () =
  let ctx, rs = clean_trace () in
  let final rs =
    match Model.accepts ctx rs with
    | Ok st -> st.Model.config
    | Error v -> Alcotest.failf "rejected: %a" Invariant.pp_violation v
  in
  check_int "the clean trace conforms" 0
    (List.length (Sim_check.conforms ctx rs ~final:ctx.Model.target));
  let last_done =
    List.fold_left max (-1)
      (List.mapi
         (fun i r -> match r with Record.Action_done _ -> i | _ -> -1)
         rs)
  in
  let edited =
    List.mapi
      (fun i r ->
        match r with
        | Record.Action_done { switch; pool; at_s; action } when i = last_done
          ->
          Record.Action_failed { switch; pool; at_s; action }
        | r -> r)
      rs
  in
  match Sim_check.conforms ctx edited ~final:(final edited) with
  | [ v ] ->
    Format.printf "%a@." Invariant.pp_violation v;
    check_bool "rejected on termination" true
      (v.Invariant.invariant = Invariant.Termination)
  | vs -> Alcotest.failf "%d violations, expected 1" (List.length vs)

(* -- run ------------------------------------------------------------------- *)

let () =
  match Array.to_list Sys.argv with
  | _ :: "accepts" :: paths ->
    let ok = List.for_all Fun.id (List.map report_journal paths) in
    exit (if ok then 0 else 1)
  | _ ->
  Alcotest.run "check"
    [
      ( "exploration",
        [
          Alcotest.test_case "exhaustive clean switch" `Quick
            test_exhaustive_clean;
          Alcotest.test_case "bounded clean switch" `Quick test_bounded_clean;
          Alcotest.test_case "seed-4 cycle break" `Quick
            test_exhaustive_cycle_break;
        ] );
      ( "counterexamples",
        [
          Alcotest.test_case "capacity violation minimized" `Quick
            test_capacity_counterexample;
          Alcotest.test_case "lifecycle violation" `Quick
            test_lifecycle_counterexample;
          Alcotest.test_case "invariant filter" `Quick test_invariant_filter;
        ] );
      ( "witness",
        [
          Alcotest.test_case "seed-file round trip" `Quick
            test_witness_roundtrip;
          Alcotest.test_case "malformed step" `Quick test_witness_malformed;
          Alcotest.test_case "inexecutable replay" `Quick
            test_replay_inexecutable;
          Alcotest.test_case "clean replay" `Quick test_replay_clean;
          Alcotest.test_case "crash specs on a clean plan" `Quick
            test_crash_specs_on_clean_plan;
        ] );
      ( "model",
        [
          Alcotest.test_case "pool barrier" `Quick test_model_pool_barrier;
          Alcotest.test_case "independence" `Quick test_model_independence;
        ] );
      ( "accepts",
        [
          Alcotest.test_case "burst0 journal" `Quick
            (test_journal_accepted "../journal/burst0.wal");
          Alcotest.test_case "soak_kill journal" `Quick
            (test_journal_accepted "../daemon/soak_kill.wal");
          Alcotest.test_case "soak_resume journal" `Quick
            (test_journal_accepted "../daemon/soak_resume.wal");
          Alcotest.test_case "chaos_kill journal" `Quick
            (test_journal_accepted "../sim/chaos_kill_wal.expected");
          Alcotest.test_case "chaos12 journal" `Quick
            (test_journal_accepted "../sim/chaos12_wal.expected");
          Alcotest.test_case "edited traces rejected" `Quick
            test_edits_rejected;
          Alcotest.test_case "executor steps accepted" `Quick
            test_executor_steps_accepted;
          Alcotest.test_case "fault-free failure rejected" `Quick
            test_fault_free_failure_rejected;
        ] );
    ]

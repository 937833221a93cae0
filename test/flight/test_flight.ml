(* Tests for the switch flight recorder (lib/flight): its reading of
   the journal fold's switches, critical-path extraction, and
   the exhaustive makespan attribution — including the adversarial
   journals the fold must degrade gracefully on (torn tails, kills
   mid-pool, retry-then-success, node crash + salvage). The load-bearing
   invariant throughout: attribution buckets and critical-path span sum
   to the observed makespan exactly, whatever the journal looks like. *)

open Entropy_core
module Record = Entropy_journal.Record
module Journal = Entropy_journal.Journal
module Recovery = Entropy_journal.Recovery
module Injector = Entropy_fault.Injector
module Supervisor = Entropy_fault.Supervisor
module Timeline = Entropy_flight.Timeline
module Critical = Entropy_flight.Critical
module Report = Entropy_flight.Report
module R = Vsim.Runner

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tolerance makespan = 1e-6 *. Float.max 1. makespan

let check_exact (tl, c) =
  let m = Timeline.makespan tl in
  let tol = tolerance m in
  check_bool
    (Printf.sprintf "switch %d exact flag" tl.Recovery.switch)
    true c.Critical.exact;
  if Float.abs (c.Critical.bucket_sum_s -. m) > tol then
    Alcotest.failf "switch %d buckets sum %.9f, makespan %.9f"
      tl.Recovery.switch c.Critical.bucket_sum_s m;
  if Float.abs (c.Critical.path_span_s -. m) > tol then
    Alcotest.failf "switch %d path span %.9f, makespan %.9f"
      tl.Recovery.switch c.Critical.path_span_s m

(* the CI kill/resume smoke instance: 16 VMs / 5 nodes, seed 42 *)
let instance =
  lazy
    (let { Vworkload.Generator.config; demand = _; vjobs } =
       Vworkload.Generator.generate
         {
           Vworkload.Generator.default_spec with
           node_count = 5;
           vm_target = 16;
           seed = 42;
         }
     in
     let programs vm =
       [
         Vworkload.Program.Compute
           (240. +. float_of_int (((37 * vm) + 42) mod 480));
       ]
     in
     (config, vjobs, programs))

let run_journaled ?injector ?policy ?kill_at () =
  let config, vjobs, programs = Lazy.force instance in
  let journal = Journal.mem () in
  let result =
    R.run_custom ~cp_timeout:0.1 ~max_time:1e6 ?injector ?policy ?kill_at
      ~journal ~config ~vjobs ~programs ()
  in
  (Journal.records journal, result)

let fault_free = lazy (run_journaled ())

(* -- fault-free run: every switch healthy, buckets exhaustive ------------- *)

let test_fault_free_exact () =
  let records, _ = Lazy.force fault_free in
  let analyses = Report.analyze_records records in
  check_bool "some switches" true (analyses <> []);
  List.iter
    (fun ((tl, c) as a) ->
      check_exact a;
      check_bool "healthy" true (Report.healthy a);
      let executed =
        Array.exists Timeline.executed tl.Recovery.slots
      in
      if executed then
        check_bool "non-empty path" true (c.Critical.path <> []))
    analyses

(* -- retry-then-success: supervised retries land in the retry bucket ------ *)

let test_retry_then_success () =
  let injector =
    Injector.create ~seed:42 [ Injector.Fail_rate { kind = None; rate = 0.3 } ]
  in
  let policy = Supervisor.make_policy ~timeout_factor:3. ~max_retries:2 () in
  let records, _ = run_journaled ~injector ~policy () in
  let analyses = Report.analyze_records records in
  check_bool "some switches" true (analyses <> []);
  List.iter check_exact analyses;
  let retried (tl, _) =
    Array.exists
      (fun a -> List.length a.Recovery.attempts > 1)
      tl.Recovery.slots
  in
  check_bool "some action was retried" true (List.exists retried analyses);
  let total_retry =
    List.fold_left
      (fun acc (_, c) -> acc +. c.Critical.buckets.Critical.retry_s)
      0. analyses
  in
  check_bool "retry bucket charged" true (total_retry > 0.)

(* -- kill mid-switch: the cut timeline still attributes exactly ----------- *)

let test_kill_mid_switch () =
  (* the first switch starts at ~0.5 s and runs for several seconds, so
     a kill at 3 s is guaranteed to cut it mid-flight *)
  let records, result = run_journaled ~kill_at:3. () in
  check_bool "run was killed" true result.R.killed;
  let analyses = Report.analyze_records records in
  check_int "one in-flight switch" 1 (List.length analyses);
  let tl, c = List.hd analyses in
  check_bool "no Switch_end" true (tl.Recovery.end_at = None);
  check_exact (tl, c);
  check_bool "in-flight actions remain" true
    (Array.exists
       (fun a -> a.Recovery.attempts <> [] && a.Recovery.terminal = None)
       tl.Recovery.slots)

(* -- torn tails: every prefix of the journal analyzes exactly ------------- *)

let test_torn_tail_prefixes () =
  let records, _ = Lazy.force fault_free in
  let n = List.length records in
  for keep = 1 to n do
    let prefix = List.filteri (fun i _ -> i < keep) records in
    let analyses = Report.analyze_records prefix in
    List.iter check_exact analyses
  done

(* -- node crash + salvage: repairs detected and charged to recovery ------- *)

let test_node_crash_salvage () =
  let injector =
    Injector.create ~seed:42
      [
        Injector.Fail_rate { kind = None; rate = 0.2 };
        Injector.Crash_node { node = 1; at_s = 50. };
      ]
  in
  let policy = Supervisor.make_policy ~timeout_factor:3. ~max_retries:1 () in
  let records, result = run_journaled ~injector ~policy () in
  check_bool "run executed repairs" true (result.R.repairs <> []);
  let analyses = Report.analyze_records records in
  List.iter check_exact analyses;
  let timelines = List.map fst analyses in
  let detected = Critical.repair_switches timelines in
  (* the heuristic must find every repair the runner actually executed
     (the runner records the journal switch id each repair ran under) *)
  List.iter
    (fun rr ->
      check_bool
        (Printf.sprintf "repair switch %d detected" rr.Vsim.Session.switch)
        true
        (List.mem rr.Vsim.Session.switch detected))
    result.R.repairs;
  let buckets, total = Critical.aggregate analyses in
  check_bool "recovery charged" true (buckets.Critical.recovery_s > 0.);
  let sum = Critical.bucket_total buckets in
  if Float.abs (sum -. total) > tolerance total then
    Alcotest.failf "episode buckets sum %.9f, total %.9f" sum total

(* -- what-if and estimate drift ------------------------------------------- *)

let test_what_if_and_drift () =
  let records, _ = Lazy.force fault_free in
  let analyses = Report.analyze_records records in
  let tl, c =
    (* largest switch: most interesting what-if surface *)
    List.fold_left
      (fun ((atl, _) as a) ((btl, _) as b) ->
        if Timeline.makespan btl > Timeline.makespan atl then b else a)
      (List.hd analyses) (List.tl analyses)
  in
  let m = Timeline.makespan tl in
  let tol = tolerance m in
  check_bool "what-if offered" true (c.Critical.what_if <> []);
  List.iter
    (fun (i, m') ->
      check_bool "freeing cannot slow the switch" true (m' <= m +. tol);
      Alcotest.(check (float 1e-9))
        "what_if_free agrees" m'
        (Critical.what_if_free tl i))
    c.Critical.what_if;
  check_bool "no-barrier replay cannot slow" true
    (c.Critical.no_barrier_makespan_s <= m +. tol);
  check_bool "drift recorded" true (c.Critical.drift <> []);
  check_bool "cost cross-check agrees" true
    (c.Critical.est_cost_mb = c.Critical.rederived_cost_mb)

(* -- hand-built journal with known numbers -------------------------------- *)

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

(* vm0 migrates in pool 0 (1 s dispatch lag, 10 s of work); pool 0
   commits at 11 s; vm1 boots in pool 1 after a 1 s slot wait and 1 s of
   work. By construction: barrier 11 s, work+contention 2 s, total 13. *)
let tiny_records =
  let source =
    mk_config ~nodes:2 ~vm_count:2 Configuration.[ Running 0; Waiting ]
  in
  let target =
    mk_config ~nodes:2 ~vm_count:2 Configuration.[ Running 1; Running 0 ]
  in
  let migrate = Action.Migrate { vm = 0; src = 0; dst = 1 } in
  let run = Action.Run { vm = 1; dst = 0 } in
  let plan = Plan.make [ [ migrate ]; [ run ] ] in
  Record.
    [
      Switch_begin
        {
          switch = 0;
          at_s = 0.;
          source;
          target;
          plan;
          demand = Demand.of_fn ~vm_count:2 (fun _ -> 10);
          seed = None;
        };
      Action_started { switch = 0; pool = 0; attempt = 1; at_s = 1.; action = migrate };
      Action_done { switch = 0; pool = 0; at_s = 11.; action = migrate };
      Pool_committed { switch = 0; pool = 0; at_s = 11. };
      Action_started { switch = 0; pool = 1; attempt = 1; at_s = 12.; action = run };
      Action_done { switch = 0; pool = 1; at_s = 13.; action = run };
      Switch_end { switch = 0; at_s = 13.; aborted = false };
    ]

let test_hand_built_numbers () =
  match Report.analyze_records tiny_records with
  | [ ((tl, c) as a) ] ->
    Alcotest.(check (float 1e-9)) "makespan" 13. (Timeline.makespan tl);
    check_exact a;
    let b = c.Critical.buckets in
    (* the boot was ready at t=0 and blocked on pool 0 until 11 s *)
    Alcotest.(check (float 1e-9)) "barrier" 11. b.Critical.barrier_s;
    Alcotest.(check (float 1e-9)) "retry" 0. b.Critical.retry_s;
    Alcotest.(check (float 1e-9)) "dependency" 0. b.Critical.dependency_s;
    Alcotest.(check (float 1e-9)) "recovery" 0. b.Critical.recovery_s;
    Alcotest.(check (float 1e-9))
      "work + contention" 2.
      (b.Critical.work_s +. b.Critical.contention_s);
    check_int "path length" 2 (List.length c.Critical.path);
    (match c.Critical.path with
    | [ first; last ] ->
      check_bool "path starts at the switch" true
        (first.Critical.edge = Critical.Start);
      check_bool "boot crossed the barrier" true
        (last.Critical.edge = Critical.Barrier 0)
    | _ -> Alcotest.fail "expected a 2-step path");
    (* removing the barrier lets the boot overlap the migration *)
    check_bool "no-barrier replay shrinks" true
      (c.Critical.no_barrier_makespan_s < 13.)
  | l -> Alcotest.failf "expected 1 analysis, got %d" (List.length l)

let () =
  Alcotest.run "entropy_flight"
    [
      ( "timeline",
        [
          Alcotest.test_case "fault-free exact" `Quick test_fault_free_exact;
          Alcotest.test_case "torn-tail prefixes" `Slow
            test_torn_tail_prefixes;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "retry then success" `Quick
            test_retry_then_success;
          Alcotest.test_case "kill mid-switch" `Quick test_kill_mid_switch;
          Alcotest.test_case "node crash + salvage" `Quick
            test_node_crash_salvage;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "what-if + drift" `Quick test_what_if_and_drift;
          Alcotest.test_case "hand-built numbers" `Quick
            test_hand_built_numbers;
        ] );
    ]

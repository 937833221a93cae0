(* Tests for the online control-plane daemon: the bounded admission
   queue, trigger coalescing, the graceful-degradation ladder, and
   whole-daemon episodes — including the chaos soak acceptance run
   (bursty open arrivals, fault injection, a mid-soak kill and resume)
   and its bit-reproducibility from the seed. *)

module Admission = Entropy_daemon.Admission
module Triggers = Entropy_daemon.Triggers
module Ladder = Entropy_daemon.Ladder
module Daemon = Entropy_daemon.Daemon
module Journal = Entropy_journal.Journal
module Record = Entropy_journal.Record
module Json = Entropy_obs.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* -- admission ------------------------------------------------------------- *)

let test_admission_bound () =
  let t = Admission.create ~cap:8 () in
  let queued = ref 0 and rejected = ref 0 in
  for vjob = 0 to 19 do
    match Admission.submit t ~now:(float_of_int vjob) ~vjob ~vms:1 with
    | `Queued -> incr queued
    | `Rejected reason ->
      incr rejected;
      check_bool "reason mentions the queue" true
        (String.length reason > 0)
  done;
  (* depth+1 >= cap rejects: the queue holds at most cap-1 entries *)
  check_int "queued up to cap-1" 7 !queued;
  check_int "rest rejected" 13 !rejected;
  check_int "depth below cap" 7 (Admission.depth t);
  check_bool "peak below cap" true (Admission.peak t < Admission.cap t);
  check_int "totals agree" 7 (Admission.queued_total t);
  check_int "rejections counted" 13 (Admission.rejected_total t)

let test_admission_fifo () =
  let t = Admission.create ~cap:16 () in
  List.iter
    (fun vjob ->
      match Admission.submit t ~now:(float_of_int vjob) ~vjob ~vms:1 with
      | `Queued -> ()
      | `Rejected _ -> Alcotest.fail "unexpected rejection")
    [ 3; 1; 4; 1; 5 ];
  let batch = Admission.take t ~max:3 in
  Alcotest.(check (list int))
    "FIFO head" [ 3; 1; 4 ]
    (List.map (fun (e : Admission.entry) -> e.Admission.vjob) batch);
  check_int "remainder" 2 (Admission.depth t);
  (* drain below max *)
  check_int "short take" 2 (List.length (Admission.take t ~max:10));
  check_int "empty" 0 (Admission.depth t)

let test_admission_pressure () =
  let t = Admission.create ~cap:10 () in
  Alcotest.(check (float 1e-9)) "empty fill" 0. (Admission.fill t);
  Alcotest.(check (float 1e-9)) "empty age" 0. (Admission.oldest_age t ~now:50.);
  (match Admission.submit t ~now:10. ~vjob:0 ~vms:1 with
  | `Queued -> ()
  | `Rejected _ -> Alcotest.fail "rejected");
  (match Admission.submit t ~now:20. ~vjob:1 ~vms:1 with
  | `Queued -> ()
  | `Rejected _ -> Alcotest.fail "rejected");
  Alcotest.(check (float 1e-9)) "fill" 0.2 (Admission.fill t);
  Alcotest.(check (float 1e-9))
    "age tracks the head" 40.
    (Admission.oldest_age t ~now:50.);
  ignore (Admission.take t ~max:1);
  Alcotest.(check (float 1e-9))
    "head moved" 30.
    (Admission.oldest_age t ~now:50.)

let test_admission_requeue () =
  let t = Admission.create ~cap:4 () in
  Admission.requeue t { Admission.vjob = 9; vms = 2; submitted_at = 0. };
  check_int "requeued" 1 (Admission.depth t);
  (* requeue past the cap means journal/cap disagreement: refuse *)
  check_bool "requeue overflow raises" true
    (invalid (fun () ->
         for i = 0 to 4 do
           Admission.requeue t
             { Admission.vjob = 10 + i; vms = 1; submitted_at = 0. }
         done))

let test_admission_bad_cap () =
  check_bool "cap 1 rejected" true
    (invalid (fun () -> Admission.create ~cap:1 ()))

(* -- triggers -------------------------------------------------------------- *)

let test_triggers_coalesce () =
  let t = Triggers.create ~debounce_s:5. () in
  (match Triggers.raise_ t ~now:0. ~reason:"arrival" with
  | Some at -> Alcotest.(check (float 1e-9)) "armed at debounce" 5. at
  | None -> Alcotest.fail "first raise must arm");
  check_bool "second raise coalesces" true
    (Triggers.raise_ t ~now:1. ~reason:"arrival" = None);
  check_bool "third raise coalesces" true
    (Triggers.raise_ t ~now:2. ~reason:"crash" = None);
  (match Triggers.fire t with
  | Some p ->
    check_int "all events in one fire" 3 p.Triggers.events;
    Alcotest.(check (list string))
      "reasons deduplicated, arrival order" [ "arrival"; "crash" ]
      p.Triggers.reasons;
    Alcotest.(check (float 1e-9)) "lag clock from first raise" 0.
      p.Triggers.first_at
  | None -> Alcotest.fail "armed machine must fire");
  check_int "raised" 3 (Triggers.raised_total t);
  check_int "fired" 1 (Triggers.fired_total t);
  check_int "coalesced" 2 (Triggers.coalesced_total t)

let test_triggers_settle () =
  let t = Triggers.create ~debounce_s:2. () in
  ignore (Triggers.raise_ t ~now:0. ~reason:"a");
  ignore (Triggers.fire t);
  check_bool "busy" true (Triggers.state t = Triggers.Busy);
  (* no raises while busy: settle goes idle *)
  check_bool "idle settle" true (Triggers.settle t ~now:3. = None);
  check_bool "idle" true (Triggers.state t = Triggers.Idle);
  (* raises while busy re-arm at settle *)
  ignore (Triggers.raise_ t ~now:4. ~reason:"b");
  ignore (Triggers.fire t);
  ignore (Triggers.raise_ t ~now:5. ~reason:"c");
  (match Triggers.settle t ~now:6. with
  | Some at -> Alcotest.(check (float 1e-9)) "re-armed" 8. at
  | None -> Alcotest.fail "raise during busy must re-arm");
  (match Triggers.fire t with
  | Some p -> check_int "the busy-time raise survives" 1 p.Triggers.events
  | None -> Alcotest.fail "re-armed machine must fire")

let test_triggers_stale_fire () =
  let t = Triggers.create ~debounce_s:1. () in
  check_bool "fire on idle is a no-op" true (Triggers.fire t = None);
  check_bool "settle on idle is a no-op" true (Triggers.settle t ~now:0. = None);
  ignore (Triggers.raise_ t ~now:0. ~reason:"a");
  (* settle must not squash an armed machine back to idle *)
  check_bool "settle on armed is a no-op" true
    (Triggers.settle t ~now:0.5 = None);
  check_bool "still armed" true (Triggers.state t = Triggers.Armed);
  check_bool "armed machine fires" true (Triggers.fire t <> None)

(* -- ladder ---------------------------------------------------------------- *)

let calm = { Ladder.queue_fill = 0.; oldest_age_s = 0.; decision_lag_s = 0. }

let hot =
  { Ladder.queue_fill = 0.9; oldest_age_s = 300.; decision_lag_s = 120. }

let test_ladder_escalates () =
  let t = Ladder.create () in
  check_bool "starts full" true (Ladder.level t = Ladder.Full);
  (* any single hot signal steps one rung *)
  (match
     Ladder.observe t ~now:0.
       { calm with Ladder.queue_fill = 0.8 }
   with
  | Some tr -> check_bool "full -> shrunk" true (tr.Ladder.to_level = Ladder.Shrunk)
  | None -> Alcotest.fail "hot fill must escalate");
  (match Ladder.observe t ~now:1. { calm with Ladder.oldest_age_s = 200. } with
  | Some tr ->
    check_bool "shrunk -> heuristic" true (tr.Ladder.to_level = Ladder.Heuristic)
  | None -> Alcotest.fail "hot age must escalate");
  (match Ladder.observe t ~now:2. { calm with Ladder.decision_lag_s = 90. } with
  | Some tr -> check_bool "heuristic -> defer" true (tr.Ladder.to_level = Ladder.Defer)
  | None -> Alcotest.fail "hot lag must escalate");
  (* at the bottom, pressure cannot push further *)
  check_bool "defer holds" true (Ladder.observe t ~now:3. hot = None);
  check_int "three escalations" 3 (Ladder.ups t)

let test_ladder_relax_hysteresis () =
  let t = Ladder.create ~level:Ladder.Heuristic () in
  check_bool "calm 1: no move" true (Ladder.observe t ~now:0. calm = None);
  check_bool "calm 2: no move" true (Ladder.observe t ~now:1. calm = None);
  (match Ladder.observe t ~now:2. calm with
  | Some tr -> check_bool "3rd calm relaxes" true (tr.Ladder.to_level = Ladder.Shrunk)
  | None -> Alcotest.fail "calm_rounds calm observations must relax");
  (* a hot blip resets the calm streak *)
  ignore (Ladder.observe t ~now:3. calm);
  ignore (Ladder.observe t ~now:4. calm);
  check_bool "blip interrupts" true (Ladder.observe t ~now:5. hot <> None);
  check_bool "streak reset 1" true (Ladder.observe t ~now:6. calm = None);
  check_bool "streak reset 2" true (Ladder.observe t ~now:7. calm = None)

let test_ladder_defer_hold_expires () =
  let t = Ladder.create ~level:Ladder.Heuristic () in
  (match Ladder.observe t ~now:0. hot with
  | Some tr -> check_bool "into defer" true (tr.Ladder.to_level = Ladder.Defer)
  | None -> Alcotest.fail "hot must defer");
  (* still hot, hold not expired: parked *)
  check_bool "parked" true (Ladder.observe t ~now:30. hot = None);
  check_bool "parked at the hold's end" true
    (Ladder.observe t ~now:(Ladder.defer_hold_s -. 1.) hot = None);
  (* hold expired: forced back to heuristic whatever the pressure *)
  match Ladder.observe t ~now:(Ladder.defer_hold_s +. 1.) hot with
  | Some tr ->
    check_bool "forced exit" true (tr.Ladder.to_level = Ladder.Heuristic);
    check_bool "cause names the hold" true
      (tr.Ladder.cause = "defer hold expired")
  | None -> Alcotest.fail "expired hold must force an exit"

(* -- daemon episodes ------------------------------------------------------- *)

let quiet_config =
  {
    Daemon.default_config with
    Daemon.nodes = 12;
    submissions = 40;
    deterministic = true;
    fail_rate = 0.05;
    seed = 3;
  }

let test_daemon_episode () =
  let r = Daemon.run quiet_config in
  check_int "every arrival disposed" 40 r.Daemon.submissions;
  check_bool "all admitted terminated" true r.Daemon.all_terminated;
  check_bool "final configuration viable" true r.Daemon.final_viable;
  check_bool "queue bounded" true r.Daemon.queue_bounded;
  check_bool "degradation bounded" true r.Daemon.degradation_bounded;
  check_bool "not killed" true (not r.Daemon.killed);
  check_bool "decisions ran" true (r.Daemon.decision_rounds > 0);
  check_bool "events coalesced" true (r.Daemon.triggers_coalesced > 0)

(* the default path: the portfolio decides at the Full and Shrunk rungs.
   Its deadline is wall-clock time, so only the episode's properties are
   checked, not its bytes. *)
let test_daemon_portfolio_episode () =
  let r = Daemon.run { quiet_config with Daemon.deterministic = false } in
  check_bool "all admitted terminated" true r.Daemon.all_terminated;
  check_bool "final configuration viable" true r.Daemon.final_viable;
  check_bool "queue bounded" true r.Daemon.queue_bounded;
  check_bool "degradation bounded" true r.Daemon.degradation_bounded

let test_daemon_reproducible () =
  let a = Daemon.run quiet_config and b = Daemon.run quiet_config in
  Alcotest.(check string)
    "same seed, same report"
    (Json.to_string (Daemon.to_json a))
    (Json.to_string (Daemon.to_json b))

let test_daemon_overload_rejects () =
  (* a storm against a tiny queue: admission must shed, never overflow *)
  let r =
    Daemon.run
      {
        Daemon.default_config with
        Daemon.nodes = 6;
        submissions = 120;
        admission_cap = 6;
        admit_batch = 2;
        burst_rate = 1.;
        mean_calm_s = 30.;
        mean_burst_s = 300.;
        deterministic = true;
        fail_rate = 0.;
        seed = 11;
      }
  in
  check_bool "storm sheds load" true (r.Daemon.rejected > 0);
  check_bool "queue stays below cap" true
    (r.Daemon.max_queue_depth < r.Daemon.admission_cap);
  check_bool "survivors all finish" true r.Daemon.all_terminated;
  check_bool "degradation bounded" true r.Daemon.degradation_bounded

let test_daemon_ladder_moves () =
  let r =
    Daemon.run
      {
        Daemon.default_config with
        Daemon.nodes = 8;
        submissions = 150;
        burst_rate = 0.5;
        mean_calm_s = 120.;
        mean_burst_s = 240.;
        deterministic = true;
        fail_rate = 0.05;
        seed = 5;
      }
  in
  check_bool "ladder escalated" true (r.Daemon.ladder_ups >= 1);
  check_bool "ladder relaxed" true (r.Daemon.ladder_downs >= 1);
  check_bool "transitions recorded" true
    (List.length r.Daemon.transitions
    = r.Daemon.ladder_ups + r.Daemon.ladder_downs);
  check_bool "all terminated" true r.Daemon.all_terminated

let test_daemon_journals_admission () =
  let j = Journal.mem () in
  let r = Daemon.run ~journal:j quiet_config in
  let records = Journal.records j in
  let subs, ladders =
    List.fold_left
      (fun (s, l) r ->
        match r with
        | Record.Submission _ -> (s + 1, l)
        | Record.Ladder _ -> (s, l + 1)
        | _ -> (s, l))
      (0, 0) records
  in
  (* every arrival journals a disposition; every admission a second *)
  check_int "submission records" (r.Daemon.submissions + r.Daemon.admitted)
    subs;
  check_int "ladder records" (List.length r.Daemon.transitions) ladders

(* -- chaos soak acceptance -------------------------------------------------- *)

let soak_config =
  {
    Daemon.default_config with
    Daemon.nodes = 24;
    submissions = 2000;
    deterministic = true;
    fail_rate = 0.1;
    crashes = 2;
    seed = 7;
  }

let check_soak_report tag (r : Daemon.report) =
  check_bool (tag ^ ": all admitted vjobs terminated") true
    r.Daemon.all_terminated;
  check_bool (tag ^ ": final configuration viable") true r.Daemon.final_viable;
  check_bool (tag ^ ": queue depth stayed below the cap") true
    (r.Daemon.max_queue_depth < r.Daemon.admission_cap);
  check_bool (tag ^ ": ladder escalated at least once") true
    (r.Daemon.ladder_ups >= 1);
  check_bool (tag ^ ": ladder relaxed at least once") true
    (r.Daemon.ladder_downs >= 1);
  check_bool (tag ^ ": degradation bounded") true r.Daemon.degradation_bounded;
  check_bool (tag ^ ": crashes hit") true (List.length r.Daemon.crashes > 0)

(* The burst-scale episode (the [burst0] runtest rule) journals the
   same bytes on every run: a change to any plan, timestamp or record
   order moves the digest. It comes from
   [entropyctl daemon run --deterministic --seed 0 --subs 500 --nodes 24
   --fail-rate 0.05 --crashes 2 --journal burst0.wal]; when an episode
   moves on purpose, update it and say why. *)
let burst0_journal_md5 = "0c1e78df235053c500fa728d0837cf49"

let burst0_config =
  {
    Daemon.default_config with
    Daemon.seed = 0;
    nodes = 24;
    submissions = 500;
    fail_rate = 0.05;
    crashes = 2;
    deterministic = true;
  }

let burst0_journal () =
  let path = Filename.temp_file "daemon_burst0" ".wal" in
  Sys.remove path;
  let journal = Journal.open_file path in
  ignore (Daemon.run ~journal burst0_config);
  Journal.close journal;
  path

let test_burst0_journal_bytes () =
  let path = burst0_journal () in
  let digest = Digest.to_hex (Digest.file path) in
  Sys.remove path;
  Alcotest.(check string) "journal digest" burst0_journal_md5 digest

(* The flight recorder's reading of that journal is pinned the same way:
   the bytes [entropyctl explain --journal burst0.wal --json F] writes
   to F (194,864 of them). A change to how the journal is folded into
   timelines, or to the critical-path attribution, moves the digest. *)
let burst0_explain_md5 = "1dbf8fa14c722c5e3b17964c2bac2b46"

let test_burst0_explain_bytes () =
  let module Report = Entropy_flight.Report in
  let path = burst0_journal () in
  let records, dropped = Journal.load path in
  Sys.remove path;
  check_int "no torn records" 0 dropped;
  let analyses = Report.analyze_records ~top_k:3 records in
  check_bool "every switch healthy" true (List.for_all Report.healthy analyses);
  let json =
    Json.to_string
      (Report.to_json ~trace_dropped:(Entropy_obs.Trace.dropped ()) analyses)
    ^ "\n"
  in
  Alcotest.(check string)
    "explain digest" burst0_explain_md5
    (Digest.to_hex (Digest.string json))

(* A simulator event costs the VMs it touches, not the cluster: over the
   burst-scale episode (about 750 VMs), a recompute re-rates at most 16
   VMs on average (4.2 when this was written; a full scan re-rated them
   all). *)
let test_burst0_rated_per_recompute () =
  let module Obs = Entropy_obs.Obs in
  let module Metrics = Entropy_obs.Metrics in
  let was = !Obs.enabled in
  Obs.reset ();
  Obs.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Obs.enabled := was;
      Obs.reset ())
    (fun () ->
      ignore (Daemon.run burst0_config);
      let count name = Metrics.counter_value (Metrics.counter name) in
      let calls = count "sim.recompute" and rated = count "sim.recompute.rated" in
      check_bool "recomputes counted" true (calls > 1000);
      let mean = float_of_int rated /. float_of_int calls in
      if mean > 16. then
        Alcotest.failf "%.1f VMs re-rated per recompute (%d over %d), above 16"
          mean rated calls)

(* Words the burst-scale episode allocates directly on the major heap
   (major minus promoted): every block over 256 words goes there, as
   each whole-vector copy of the 750-VM state or readings did, 3.43M
   words when those vectors were flat arrays. With chunked vectors a
   write copies a 12-word spine and a 64-word chunk on the minor heap,
   and 60.6k words are left (mostly 750-entry demand vectors). The bound
   is twice that: one flat copy per applied action brings back about
   1.6M words. *)
let test_burst0_major_words () =
  Gc.full_major ();
  let _, promoted0, major0 = Gc.counters () in
  ignore (Daemon.run burst0_config);
  let _, promoted1, major1 = Gc.counters () in
  let direct = major1 -. major0 -. (promoted1 -. promoted0) in
  Printf.printf "burst0: %.0f words allocated directly on the major heap\n" direct;
  if direct > 120e3 then
    Alcotest.failf "%.0f direct major-heap words, above 120k" direct

let test_soak () =
  let r = Daemon.run soak_config in
  check_int "soak: every submission disposed" 2000 r.Daemon.submissions;
  check_bool "soak: overload shed some load" true (r.Daemon.rejected > 0);
  check_soak_report "soak" r

let test_soak_reproducible () =
  let a = Daemon.run soak_config and b = Daemon.run soak_config in
  Alcotest.(check string)
    "soak reproducible from seed"
    (Json.to_string (Daemon.to_json a))
    (Json.to_string (Daemon.to_json b))

let test_soak_kill_resume () =
  let path = Filename.temp_file "daemon_soak" ".journal" in
  let killed_config = { soak_config with Daemon.kill_at = Some 20000. } in
  let journal = Journal.open_file path in
  let killed = Daemon.run ~journal killed_config in
  Journal.close journal;
  check_bool "killed mid-soak" true killed.Daemon.killed;
  check_bool "kill: queue bounded" true killed.Daemon.queue_bounded;
  let records, dropped = Journal.load path in
  check_int "journal intact" 0 dropped;
  check_bool "journal non-trivial" true (List.length records > 100);
  let journal = Journal.open_file path in
  let resumed = Daemon.resume ~journal ~records soak_config in
  Journal.close journal;
  Sys.remove path;
  check_bool "resume: resumed" true resumed.Daemon.resumed;
  check_int "resume: every submission disposed" 2000
    resumed.Daemon.submissions;
  check_soak_report "resume" resumed

(* The CI soak (seed 3, 120 submissions, 12 nodes, one crash) killed
   just after each of its switches ended: whatever the cut, the resumed
   daemon terminates every admitted vjob in a viable configuration,
   within its queue and degradation bounds. Resume reconciles the ended
   switch too, as the periodic runner does. *)
let ci_soak_config =
  {
    Daemon.default_config with
    Daemon.nodes = 12;
    submissions = 120;
    deterministic = true;
    fail_rate = 0.05;
    crashes = 1;
    seed = 3;
  }

let test_resume_after_every_switch_end () =
  let journal = Journal.mem () in
  ignore (Daemon.run ~journal ci_soak_config);
  let cuts =
    List.fold_left
      (fun (prefix, cuts) r ->
        let prefix = r :: prefix in
        match r with
        | Record.Switch_end _ -> (prefix, List.rev prefix :: cuts)
        | _ -> (prefix, cuts))
      ([], []) (Journal.records journal)
    |> snd |> List.rev
  in
  check_int "switch ends" 38 (List.length cuts);
  List.iteri
    (fun k records ->
      let r =
        Daemon.resume ~journal:(Journal.of_records records) ~records
          ci_soak_config
      in
      let tag what = Printf.sprintf "cut after switch end %d: %s" k what in
      check_bool (tag "all terminated") true r.Daemon.all_terminated;
      check_bool (tag "final viable") true r.Daemon.final_viable;
      check_bool (tag "queue bounded") true r.Daemon.queue_bounded;
      check_bool (tag "degradation bounded") true r.Daemon.degradation_bounded)
    cuts

let () =
  Alcotest.run "daemon"
    [
      ( "admission",
        [
          Alcotest.test_case "bound" `Quick test_admission_bound;
          Alcotest.test_case "fifo" `Quick test_admission_fifo;
          Alcotest.test_case "pressure" `Quick test_admission_pressure;
          Alcotest.test_case "requeue" `Quick test_admission_requeue;
          Alcotest.test_case "bad cap" `Quick test_admission_bad_cap;
        ] );
      ( "triggers",
        [
          Alcotest.test_case "coalesce" `Quick test_triggers_coalesce;
          Alcotest.test_case "settle" `Quick test_triggers_settle;
          Alcotest.test_case "stale fire" `Quick test_triggers_stale_fire;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "escalates" `Quick test_ladder_escalates;
          Alcotest.test_case "relax hysteresis" `Quick
            test_ladder_relax_hysteresis;
          Alcotest.test_case "defer hold" `Quick test_ladder_defer_hold_expires;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "episode" `Quick test_daemon_episode;
          Alcotest.test_case "portfolio episode" `Quick
            test_daemon_portfolio_episode;
          Alcotest.test_case "reproducible" `Quick test_daemon_reproducible;
          Alcotest.test_case "overload rejects" `Quick
            test_daemon_overload_rejects;
          Alcotest.test_case "ladder moves" `Quick test_daemon_ladder_moves;
          Alcotest.test_case "journals admission" `Quick
            test_daemon_journals_admission;
          Alcotest.test_case "burst0 journal bytes" `Quick
            test_burst0_journal_bytes;
          Alcotest.test_case "burst0 explain bytes" `Quick
            test_burst0_explain_bytes;
          Alcotest.test_case "burst0 re-rated per recompute" `Quick
            test_burst0_rated_per_recompute;
          Alcotest.test_case "burst0 direct major-heap words" `Quick
            test_burst0_major_words;
          Alcotest.test_case "resume after every switch end" `Quick
            test_resume_after_every_switch_end;
        ] );
      ( "soak",
        [
          Alcotest.test_case "chaos soak" `Slow test_soak;
          Alcotest.test_case "reproducible" `Slow test_soak_reproducible;
          Alcotest.test_case "kill and resume" `Slow test_soak_kill_resume;
        ] );
    ]

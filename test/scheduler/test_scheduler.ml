(* Tests for the traditional-RMS baseline: free-node profiles, FCFS and
   backfilling schedules (the Figure 1 story) and the static-allocation
   run used as the Figure 12/13 baseline. *)

module Job = Batch.Job
module Profile = Batch.Profile
module Rms = Batch.Rms
module Static_alloc = Batch.Static_alloc
module Trace = Vworkload.Trace
module Nasgrid = Vworkload.Nasgrid
module Program = Vworkload.Program

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float eps = Alcotest.(check (float eps))

let job ?(arrival = 0.) id nodes walltime =
  Job.make ~id ~name:(Printf.sprintf "job%d" id) ~arrival
    ~nodes_required:nodes ~walltime ~actual:walltime ()

(* -- profile --------------------------------------------------------------- *)

let test_profile_initially_free () =
  let p = Profile.create ~capacity:10 in
  check_int "free" 10 (Profile.free_at p 0.);
  check_int "free later" 10 (Profile.free_at p 1000.)

let test_profile_allocate () =
  let p = Profile.create ~capacity:10 in
  Profile.allocate p ~start:5. ~finish:15. ~nodes:4;
  check_int "before" 10 (Profile.free_at p 0.);
  check_int "during" 6 (Profile.free_at p 5.);
  check_int "during 2" 6 (Profile.free_at p 14.9);
  check_int "after" 10 (Profile.free_at p 15.)

let test_profile_stacked_allocations () =
  let p = Profile.create ~capacity:10 in
  Profile.allocate p ~start:0. ~finish:10. ~nodes:4;
  Profile.allocate p ~start:5. ~finish:20. ~nodes:4;
  check_int "overlap" 2 (Profile.free_at p 7.);
  check_int "tail" 6 (Profile.free_at p 12.);
  check_bool "over-allocation rejected" true
    (try
       Profile.allocate p ~start:6. ~finish:8. ~nodes:3;
       false
     with Invalid_argument _ -> true)

let test_profile_earliest () =
  let p = Profile.create ~capacity:10 in
  Profile.allocate p ~start:0. ~finish:10. ~nodes:8;
  (* 5 nodes for 5 s: must wait for t=10 *)
  check_float 1e-9 "waits" 10.
    (Profile.earliest p ~after:0. ~nodes:5 ~duration:5.);
  (* 2 nodes fit immediately *)
  check_float 1e-9 "fits now" 0.
    (Profile.earliest p ~after:0. ~nodes:2 ~duration:5.);
  (* a hole too short does not count *)
  Profile.allocate p ~start:12. ~finish:20. ~nodes:8;
  check_float 1e-9 "hole too short" 20.
    (Profile.earliest p ~after:0. ~nodes:5 ~duration:5.)

(* regression: the full-capacity request on a packed profile must fall
   through every busy candidate to the trailing all-free segment,
   never hit an assertion *)
let test_profile_earliest_total () =
  let p = Profile.create ~capacity:10 in
  Profile.allocate p ~start:0. ~finish:10. ~nodes:1;
  Profile.allocate p ~start:10. ~finish:30. ~nodes:1;
  (* only the trailing segment ever has all 10 nodes *)
  check_float 1e-9 "full capacity waits for the end" 30.
    (Profile.earliest p ~after:0. ~nodes:10 ~duration:5.);
  (* asking from beyond every breakpoint stays total too *)
  check_float 1e-9 "beyond all breakpoints" 100.
    (Profile.earliest p ~after:100. ~nodes:10 ~duration:5.)

(* -- rms -------------------------------------------------------------------- *)

let test_fcfs_strict_order () =
  (* Figure 1 (b) setting: job2 small, could start early, but strict
     FCFS keeps start order *)
  let jobs = [ job 0 8 10.; job 1 8 10.; job 2 2 5. ] in
  let s = Rms.fcfs ~capacity:10 jobs in
  let starts =
    List.map (fun (p : Job.placement) -> (p.Job.job.Job.id, p.Job.start)) s.Rms.placements
  in
  check_float 1e-9 "job0 at 0" 0. (List.assoc 0 starts);
  check_float 1e-9 "job1 at 10" 10. (List.assoc 1 starts);
  (* strict: job2 cannot start before job1 even though 2 nodes are free *)
  check_float 1e-9 "job2 after job1" 10. (List.assoc 2 starts)

let test_backfill_fills_holes () =
  let jobs = [ job 0 8 10.; job 1 8 10.; job 2 2 5. ] in
  let s = Rms.backfill ~capacity:10 jobs in
  let starts =
    List.map (fun (p : Job.placement) -> (p.Job.job.Job.id, p.Job.start)) s.Rms.placements
  in
  (* job2 backfills beside job0 *)
  check_float 1e-9 "job2 backfilled" 0. (List.assoc 2 starts);
  check_bool "makespan not worse" true (s.Rms.makespan <= (Rms.fcfs ~capacity:10 jobs).Rms.makespan)

let test_backfill_never_delays_reserved_jobs () =
  (* the backfilled job fits entirely in the hole: earlier jobs keep
     their starts *)
  let jobs = [ job 0 6 10.; job 1 10 10.; job 2 4 10. ] in
  let strict = Rms.fcfs ~capacity:10 jobs in
  let bf = Rms.backfill ~capacity:10 jobs in
  let start sched id =
    let p =
      List.find
        (fun (p : Job.placement) -> p.Job.job.Job.id = id)
        sched.Rms.placements
    in
    p.Job.start
  in
  check_float 1e-9 "job1 unchanged" (start strict 1) (start bf 1);
  check_bool "job2 earlier" true (start bf 2 < start strict 2)

let test_release_actual_vs_walltime () =
  (* the slot is twice the actual duration: rigid reservations waste it *)
  let j0 =
    Job.make ~id:0 ~name:"j0" ~nodes_required:10 ~walltime:20. ~actual:10. ()
  in
  let j1 =
    Job.make ~id:1 ~name:"j1" ~nodes_required:10 ~walltime:10. ~actual:10. ()
  in
  let rigid = Rms.fcfs ~release:Rms.Walltime ~capacity:10 [ j0; j1 ] in
  let oracle = Rms.fcfs ~release:Rms.Actual ~capacity:10 [ j0; j1 ] in
  check_float 1e-9 "rigid waits the slot" 30. rigid.Rms.makespan;
  check_float 1e-9 "oracle packs tight" 20. oracle.Rms.makespan

let test_killed_job () =
  let j = Job.make ~id:0 ~name:"late" ~nodes_required:1 ~walltime:10. ~actual:15. () in
  check_bool "killed" true (Job.killed j);
  let p = { Job.job = j; start = 0. } in
  check_bool "no completion" true (Job.completion p = None);
  check_float 1e-9 "slot end" 10. (Job.slot_end p)

let test_preemptive_lower_bound () =
  let jobs = [ job 0 5 10.; job 1 5 10.; job 2 10 10. ] in
  (* area = 50+50+100 = 200 over 10 nodes -> 20 s *)
  check_float 1e-9 "area bound" 20. (Rms.preemptive_lower_bound ~capacity:10 jobs);
  (* a single long job dominates *)
  let jobs = [ job 0 1 100. ] in
  check_float 1e-9 "longest bound" 100.
    (Rms.preemptive_lower_bound ~capacity:10 jobs)

let test_used_nodes () =
  let jobs = [ job 0 6 10.; job 1 6 10. ] in
  let s = Rms.fcfs ~capacity:10 jobs in
  check_int "one job at t=5" 6 (Rms.used_nodes s 5.);
  check_int "second at t=15" 6 (Rms.used_nodes s 15.);
  check_int "none at t=25" 0 (Rms.used_nodes s 25.)

(* -- static allocation ------------------------------------------------------- *)

let test_nodes_required_ffd () =
  (* 9 full-CPU VMs on 2-core nodes: at least 5 nodes; memory can push
     it higher *)
  let t = Trace.make ~seed:0 ~vm_count:9 Nasgrid.Ed Nasgrid.W in
  let n = Static_alloc.nodes_required ~node_cpu:200 ~node_mem:3584 t in
  check_bool "at least ceil(9/2)" true (n >= 5);
  check_bool "at most 9" true (n <= 9)

let test_job_of_trace () =
  let t = Trace.make ~seed:0 ~vm_count:9 Nasgrid.Ed Nasgrid.W in
  let j = Static_alloc.job_of_trace ~node_cpu:200 ~node_mem:3584 ~id:0 t in
  check_float 1e-6 "actual is min duration" (Trace.min_duration t) j.Job.actual;
  check_bool "walltime overestimated" true (j.Job.walltime > j.Job.actual)

let test_static_run_fits_capacity () =
  let traces =
    List.init 8 (fun i ->
        let family = List.nth Nasgrid.families (i mod 4) in
        Trace.make ~seed:i ~vm_count:9 family Nasgrid.W)
  in
  let run = Static_alloc.run ~capacity:11 ~node_cpu:200 ~node_mem:3584 traces in
  check_int "all placed" 8 (List.length run.Static_alloc.schedule.Rms.placements);
  (* node usage never exceeds the cluster *)
  let rec check_time t =
    if t < Static_alloc.makespan run then begin
      check_bool "within capacity" true
        (Rms.used_nodes run.Static_alloc.schedule t <= 11);
      check_time (t +. 60.)
    end
  in
  check_time 0.

let test_static_demand_at () =
  let prog = [ Program.Compute 10.; Program.Idle 5.; Program.Compute 10. ] in
  check_int "computing" 100 (Static_alloc.demand_at prog 5.);
  check_int "idling" 5 (Static_alloc.demand_at prog 12.);
  check_int "computing again" 100 (Static_alloc.demand_at prog 20.);
  check_int "done" 0 (Static_alloc.demand_at prog 30.)

let test_profile_min_free () =
  let p = Profile.create ~capacity:10 in
  Profile.allocate p ~start:2. ~finish:6. ~nodes:4;
  Profile.allocate p ~start:4. ~finish:8. ~nodes:3;
  check_int "overlap window" 3 (Profile.min_free p ~start:0. ~finish:10.);
  check_int "early window" 6 (Profile.min_free p ~start:0. ~finish:4.);
  check_int "free tail" 10 (Profile.min_free p ~start:8. ~finish:20.)

let test_static_series_shape () =
  let traces = [ Trace.make ~seed:0 ~vm_count:9 Nasgrid.Ed Nasgrid.W ] in
  let run = Static_alloc.run ~capacity:11 ~node_cpu:200 ~node_mem:3584 traces in
  let series = Static_alloc.series ~period:10. run in
  check_bool "non empty" true (series <> []);
  let _, (mem, cpu) = List.hd series in
  (* at t=0 the job runs: 9 VMs of memory, 9 full CPUs *)
  check_bool "mem positive" true (mem > 0);
  check_int "9 computing VMs" 900 cpu

let prop_simulate_sound =
  QCheck.Test.make ~name:"online simulation: arrivals respected, capacity held"
    ~count:200
    QCheck.(
      small_list (triple (int_range 1 10) (int_range 1 40) (int_range 0 60)))
    (fun specs ->
      QCheck.assume (specs <> []);
      let jobs =
        List.mapi
          (fun i (n, w, a) ->
            Job.make ~id:i ~name:(Printf.sprintf "j%d" i)
              ~arrival:(float_of_int a) ~nodes_required:n
              ~walltime:(float_of_int w) ~actual:(float_of_int w) ())
          specs
      in
      let s = Rms.simulate ~capacity:10 jobs in
      let all_placed = List.length s.Rms.placements = List.length jobs in
      let arrivals_ok =
        List.for_all
          (fun (p : Job.placement) -> p.Job.start >= p.Job.job.Job.arrival)
          s.Rms.placements
      in
      let capacity_ok =
        let ok = ref true in
        let t = ref 0.5 in
        while !t < s.Rms.makespan do
          if Rms.used_nodes ~release:Rms.Actual s !t > 10 then ok := false;
          t := !t +. 1.
        done;
        !ok
      in
      all_placed && arrivals_ok && capacity_ok)

let prop_online_beats_rigid =
  QCheck.Test.make
    ~name:"online RMS never slower than rigid slots (same order, early release)"
    ~count:200
    QCheck.(small_list (pair (int_range 1 10) (int_range 1 40)))
    (fun specs ->
      QCheck.assume (specs <> []);
      (* actual = walltime/2: rigid slots waste half of every slot *)
      let jobs =
        List.mapi
          (fun i (n, w) ->
            Job.make ~id:i ~name:(Printf.sprintf "j%d" i) ~nodes_required:n
              ~walltime:(float_of_int (2 * w))
              ~actual:(float_of_int w) ())
          specs
      in
      let online = Rms.simulate ~backfill:false ~capacity:10 jobs in
      let rigid = Rms.fcfs ~release:Rms.Walltime ~capacity:10 jobs in
      online.Rms.makespan <= rigid.Rms.makespan +. 1e-9)

let prop_backfill_beats_fcfs =
  QCheck.Test.make ~name:"backfilling never worse than strict FCFS" ~count:200
    QCheck.(
      small_list (pair (int_range 1 10) (int_range 1 50)))
    (fun specs ->
      QCheck.assume (specs <> []);
      let jobs =
        List.mapi (fun i (n, w) -> job i n (float_of_int w)) specs
      in
      let strict = Rms.fcfs ~capacity:10 jobs in
      let bf = Rms.backfill ~capacity:10 jobs in
      bf.Rms.makespan <= strict.Rms.makespan +. 1e-9)

let prop_schedule_respects_capacity =
  QCheck.Test.make ~name:"schedules never exceed capacity" ~count:200
    QCheck.(small_list (pair (int_range 1 10) (int_range 1 50)))
    (fun specs ->
      QCheck.assume (specs <> []);
      let jobs = List.mapi (fun i (n, w) -> job i n (float_of_int w)) specs in
      let s = Rms.backfill ~capacity:10 jobs in
      let ok = ref true in
      let t = ref 0.5 in
      while !t < s.Rms.makespan do
        if Rms.used_nodes s !t > 10 then ok := false;
        t := !t +. 1.
      done;
      !ok)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "batch"
    [
      ( "profile",
        [
          Alcotest.test_case "initially free" `Quick test_profile_initially_free;
          Alcotest.test_case "allocate" `Quick test_profile_allocate;
          Alcotest.test_case "stacked" `Quick test_profile_stacked_allocations;
          Alcotest.test_case "earliest" `Quick test_profile_earliest;
          Alcotest.test_case "earliest is total" `Quick
            test_profile_earliest_total;
          Alcotest.test_case "min free" `Quick test_profile_min_free;
        ] );
      ( "rms",
        [
          Alcotest.test_case "fcfs strict" `Quick test_fcfs_strict_order;
          Alcotest.test_case "backfill fills holes (fig 1)" `Quick
            test_backfill_fills_holes;
          Alcotest.test_case "backfill no delay" `Quick
            test_backfill_never_delays_reserved_jobs;
          Alcotest.test_case "release modes" `Quick
            test_release_actual_vs_walltime;
          Alcotest.test_case "killed job" `Quick test_killed_job;
          Alcotest.test_case "preemptive bound" `Quick
            test_preemptive_lower_bound;
          Alcotest.test_case "used nodes" `Quick test_used_nodes;
        ]
        @ qsuite
            [
              prop_backfill_beats_fcfs;
              prop_schedule_respects_capacity;
              prop_simulate_sound;
              prop_online_beats_rigid;
            ] );
      ( "static_alloc",
        [
          Alcotest.test_case "nodes required" `Quick test_nodes_required_ffd;
          Alcotest.test_case "job of trace" `Quick test_job_of_trace;
          Alcotest.test_case "fits capacity" `Quick
            test_static_run_fits_capacity;
          Alcotest.test_case "demand at" `Quick test_static_demand_at;
          Alcotest.test_case "series shape" `Quick test_static_series_shape;
        ] );
    ]

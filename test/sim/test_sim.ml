(* Tests for the discrete-event simulator: heap, engine, the Figure 3
   performance model, cluster workload execution, plan execution and the
   end-to-end runner. *)

open Entropy_core
module Program = Vworkload.Program
module Trace = Vworkload.Trace
module Nasgrid = Vworkload.Nasgrid

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float eps = Alcotest.(check (float eps))

(* -- heap ------------------------------------------------------------------ *)

let test_heap_ordering () =
  let h = Vsim.Heap.create () in
  List.iter (fun (p, v) -> ignore (Vsim.Heap.push h p v)) [ (3., "c"); (1., "a"); (2., "b") ];
  let pop () = match Vsim.Heap.pop h with Some (_, v) -> v | None -> "!" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ first; second; third ]

let test_heap_fifo_ties () =
  let h = Vsim.Heap.create () in
  List.iter (fun v -> ignore (Vsim.Heap.push h 1. v)) [ "x"; "y"; "z" ];
  let pop () = match Vsim.Heap.pop h with Some (_, v) -> v | None -> "!" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "fifo" [ "x"; "y"; "z" ] [ first; second; third ]

let heap_pops_sorted =
  QCheck.Test.make ~name:"heap pops in priority order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun prios ->
      let h = Vsim.Heap.create () in
      List.iter (fun p -> ignore (Vsim.Heap.push h p p)) prios;
      let rec drain acc =
        match Vsim.Heap.pop h with
        | None -> List.rev acc
        | Some (_, v) -> drain (v :: acc)
      in
      drain [] = List.sort Float.compare prios)

let test_heap_tied_count () =
  let h = Vsim.Heap.create () in
  check_int "empty heap has no ties" 0 (Vsim.Heap.tied_count h);
  List.iter (fun v -> ignore (Vsim.Heap.push h 1. v)) [ "x"; "y" ];
  ignore (Vsim.Heap.push h 2. "later");
  check_int "two events tied at the top" 2 (Vsim.Heap.tied_count h);
  ignore (Vsim.Heap.pop h);
  ignore (Vsim.Heap.pop h);
  check_int "one left" 1 (Vsim.Heap.tied_count h)

let test_heap_pop_tied () =
  let h = Vsim.Heap.create () in
  List.iter (fun v -> ignore (Vsim.Heap.push h 1. v)) [ "x"; "y"; "z" ];
  ignore (Vsim.Heap.push h 2. "later");
  (* k indexes the tied events in insertion order *)
  Alcotest.(check string) "picks the k-th tie" "y" (Vsim.Heap.pop_tied h 1);
  Alcotest.(check string)
    "remaining ties keep order" "x" (Vsim.Heap.pop_tied h 0);
  Alcotest.(check string)
    "out-of-range clamps to FIFO" "z" (Vsim.Heap.pop_tied h 7);
  (match Vsim.Heap.pop h with
  | Some (p, v) ->
    check_float 1e-9 "non-tied event unharmed" 2. p;
    Alcotest.(check string) "non-tied value" "later" v
  | None -> Alcotest.fail "heap lost an event");
  check_bool "pop_tied on empty raises" true
    (try
       ignore (Vsim.Heap.pop_tied h 0);
       false
     with Invalid_argument _ -> true)

let heap_pop_tied_is_permutation =
  QCheck.Test.make ~name:"pop_tied drains a permutation" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 8) (int_bound 3)) (int_bound 7))
    (fun (prios, k) ->
      let h = Vsim.Heap.create () in
      List.iteri (fun i p -> ignore (Vsim.Heap.push h (float_of_int p) i)) prios;
      let rec drain acc =
        if Vsim.Heap.is_empty h then List.rev acc
        else begin
          let p = Vsim.Heap.top_prio h in
          let v = Vsim.Heap.pop_tied h (k mod Vsim.Heap.tied_count h) in
          drain ((p, v) :: acc)
        end
      in
      let out = drain [] in
      (* all events come out, in non-decreasing priority order *)
      List.length out = List.length prios
      && List.sort compare (List.map snd out)
         = List.init (List.length prios) Fun.id
      && fst (List.fold_left
                (fun (ok, prev) (p, _) -> (ok && p >= prev, p))
                (true, neg_infinity) out))

(* Random push / remove / pop sequences against a model: the live
   entries as a list of (priority, push number). Removes name any entry
   ever pushed, so some hit entries that were already popped or
   removed; those must change nothing. After every operation the heap
   is well formed (every entry's slot indexes itself) and holds exactly
   the model's entries. *)
let heap_matches_model =
  QCheck.Test.make ~name:"indexed heap against a sorted model" ~count:300
    QCheck.(list_of_size Gen.(0 -- 80) (triple (int_bound 2) (int_bound 4) small_nat))
    (fun ops ->
      let h = Vsim.Heap.create () in
      let pushed = ref [||] in
      let live = ref [] in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let min_of l =
        List.fold_left
          (fun m x -> match m with Some y when compare y x <= 0 -> m | _ -> Some x)
          None l
      in
      List.iter
        (fun (op, prio, k) ->
          (match op with
          | 0 ->
            let n = Array.length !pushed in
            let e = Vsim.Heap.push h (float_of_int prio) n in
            pushed := Array.append !pushed [| e |];
            live := (prio, n) :: !live
          | 1 when Array.length !pushed > 0 ->
            let n = k mod Array.length !pushed in
            let e = !pushed.(n) in
            let was_live = List.exists (fun (_, m) -> m = n) !live in
            expect (Vsim.Heap.mem h e = was_live);
            let before = Vsim.Heap.length h in
            Vsim.Heap.remove h e;
            expect (Vsim.Heap.length h = before - if was_live then 1 else 0);
            live := List.filter (fun (_, m) -> m <> n) !live
          | _ -> (
            match (Vsim.Heap.pop h, min_of !live) with
            | None, None -> ()
            | Some (p, v), Some (mp, mn) ->
              expect (p = float_of_int mp && v = mn);
              live := List.filter (fun (_, m) -> m <> mn) !live
            | Some _, None | None, Some _ -> expect false));
          expect (Vsim.Heap.well_formed h);
          expect (Vsim.Heap.length h = List.length !live);
          Array.iteri
            (fun n e ->
              expect
                (Vsim.Heap.mem h e = List.exists (fun (_, m) -> m = n) !live))
            !pushed)
        ops;
      !ok)

(* -- engine ----------------------------------------------------------------- *)

let test_engine_ordering () =
  let e = Vsim.Engine.create () in
  let log = ref [] in
  ignore (Vsim.Engine.schedule e ~at:5. (fun () -> log := "b" :: !log));
  ignore (Vsim.Engine.schedule e ~at:1. (fun () -> log := "a" :: !log));
  Vsim.Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b" ] (List.rev !log);
  check_float 1e-9 "clock" 5. (Vsim.Engine.now e)

let test_engine_cancel () =
  let e = Vsim.Engine.create () in
  let fired = ref false in
  let h = Vsim.Engine.schedule e ~at:1. (fun () -> fired := true) in
  Vsim.Engine.cancel e h;
  Vsim.Engine.run e;
  check_bool "not fired" false !fired

let test_engine_schedule_in_callback () =
  let e = Vsim.Engine.create () in
  let log = ref [] in
  ignore
    (Vsim.Engine.schedule e ~at:1. (fun () ->
         log := 1 :: !log;
         ignore
           (Vsim.Engine.schedule_after e ~delay:2. (fun () -> log := 2 :: !log))));
  Vsim.Engine.run e;
  Alcotest.(check (list int)) "chained" [ 1; 2 ] (List.rev !log);
  check_float 1e-9 "clock" 3. (Vsim.Engine.now e)

let test_engine_until () =
  let e = Vsim.Engine.create () in
  let count = ref 0 in
  ignore (Vsim.Engine.schedule e ~at:1. (fun () -> incr count));
  ignore (Vsim.Engine.schedule e ~at:10. (fun () -> incr count));
  Vsim.Engine.run ~until:5. e;
  check_int "only first" 1 !count

let test_engine_chooser () =
  (* with a chooser installed, tie-breaks among simultaneous events
     follow its choices instead of FIFO *)
  let run_with chooser =
    let e = Vsim.Engine.create () in
    let log = ref [] in
    List.iter
      (fun v -> ignore (Vsim.Engine.schedule e ~at:1. (fun () -> log := v :: !log)))
      [ "x"; "y"; "z" ];
    ignore (Vsim.Engine.schedule e ~at:2. (fun () -> log := "later" :: !log));
    Vsim.Engine.set_chooser e chooser;
    Vsim.Engine.run e;
    List.rev !log
  in
  Alcotest.(check (list string))
    "no chooser: FIFO"
    [ "x"; "y"; "z"; "later" ]
    (run_with None);
  (* always pick the last tie: z (of x,y,z), then y (of x,y), then x;
     the lone event at t=2 never consults the chooser *)
  let arities = ref [] in
  Alcotest.(check (list string))
    "chooser reverses the ties"
    [ "z"; "y"; "x"; "later" ]
    (run_with
       (Some
          (fun n ->
            arities := n :: !arities;
            n - 1)));
  Alcotest.(check (list int))
    "chooser consulted only on real ties" [ 3; 2 ] (List.rev !arities)

let test_engine_rejects_past () =
  let e = Vsim.Engine.create () in
  ignore (Vsim.Engine.schedule e ~at:2. (fun () -> ()));
  Vsim.Engine.run e;
  check_bool "past rejected" true
    (try
       ignore (Vsim.Engine.schedule e ~at:1. (fun () -> ()));
       false
     with Invalid_argument _ -> true)

(* -- perf model (Figure 3 calibration) -------------------------------------- *)

let test_perf_boot_stop_memory_independent () =
  check_float 1e-9 "boot" Vsim.Perf_model.boot 6.;
  check_float 1e-9 "shutdown" Vsim.Perf_model.clean_shutdown 25.

let test_perf_migrate_scales_with_memory () =
  let d512 = Vsim.Perf_model.migrate ~memory_mb:512 in
  let d2048 = Vsim.Perf_model.migrate ~memory_mb:2048 in
  check_bool "larger VM slower" true (d2048 > d512);
  (* paper: migrating a 2 GB VM takes up to ~26 s *)
  check_bool "2GB ~26s" true (d2048 > 20. && d2048 < 30.);
  check_bool "512MB <= 10s" true (d512 < 10.)

let test_perf_suspend_remote_doubles () =
  let local = Vsim.Perf_model.suspend ~memory_mb:2048 ~transfer:Vsim.Perf_model.Local in
  let scp = Vsim.Perf_model.suspend ~memory_mb:2048 ~transfer:Vsim.Perf_model.Scp in
  check_bool "local ~100s" true (local > 80. && local < 120.);
  check_bool "scp roughly doubles" true
    (scp > 1.7 *. local && scp < 2.3 *. local)

let test_perf_resume_remote_vs_local () =
  let local = Vsim.Perf_model.resume ~memory_mb:2048 ~transfer:Vsim.Perf_model.Local in
  let scp = Vsim.Perf_model.resume ~memory_mb:2048 ~transfer:Vsim.Perf_model.Scp in
  check_bool "local ~80s" true (local > 60. && local < 110.);
  check_bool "remote roughly 2x" true (scp > 1.7 *. local && scp < 2.4 *. local);
  (* the paper reports remote resumes of up to ~3 minutes *)
  check_bool "remote under 3.5 min" true (scp < 210.)

let test_perf_deceleration () =
  check_float 1e-9 "no busy" 1.
    (Vsim.Perf_model.deceleration ~local:true ~busy_coresident:false);
  check_float 1e-9 "local busy" 1.3
    (Vsim.Perf_model.deceleration ~local:true ~busy_coresident:true);
  check_float 1e-9 "remote busy" 1.5
    (Vsim.Perf_model.deceleration ~local:false ~busy_coresident:true)

let test_perf_figure3_rows () =
  let rows = Vsim.Perf_model.figure3_rows () in
  check_int "3 memory sizes" 3 (List.length rows);
  List.iter
    (fun (_, cells) -> check_int "9 operations" 9 (List.length cells))
    rows;
  (* durations grow with memory for memory-led operations *)
  let value mem op =
    let _, cells = List.find (fun (m, _) -> m = mem) rows in
    List.assoc op cells
  in
  List.iter
    (fun op ->
      check_bool (op ^ " monotone") true
        (value 512 op < value 1024 op && value 1024 op < value 2048 op))
    [ "migrate"; "suspend local"; "resume local+scp" ];
  check_float 1e-9 "boot flat" (value 512 "start/run") (value 2048 "start/run")

let test_perf_action_duration_contention () =
  let nodes = [| Node.testbed ~id:0 ~name:"N0"; Node.testbed ~id:1 ~name:"N1" |] in
  let vms = [| Vm.make ~id:0 ~name:"vm0" ~memory_mb:1024 |] in
  let config = Configuration.make ~nodes ~vms in
  let config = Configuration.set_state config 0 (Configuration.Running 0) in
  let action = Action.Migrate { vm = 0; src = 0; dst = 1 } in
  let quiet = Vsim.Perf_model.action_duration ~busy:(fun _ -> false) action config in
  let busy = Vsim.Perf_model.action_duration ~busy:(fun _ -> true) action config in
  check_float 1e-6 "busy = 1.5x quiet" (quiet *. 1.5) busy

(* one duration table: without contention the simulator's durations are
   the planner's estimates, bit for bit *)
let test_perf_quiet_equals_schedule () =
  let nodes = [| Node.testbed ~id:0 ~name:"N0"; Node.testbed ~id:1 ~name:"N1" |] in
  let sizes = [ 512; 1024; 2048 ] in
  let vms =
    Array.of_list
      (List.mapi
         (fun i m -> Vm.make ~id:i ~name:(Printf.sprintf "vm%d" i) ~memory_mb:m)
         sizes)
  in
  let config = Configuration.make ~nodes ~vms in
  List.iteri
    (fun vm m ->
      List.iter
        (fun action ->
          check_bool
            (Format.asprintf "%d MB %a" m Action.pp action)
            true
            (Vsim.Perf_model.action_duration ~busy:(fun _ -> false) action config
            = Schedule.action_duration config action))
        [
          Action.Run { vm; dst = 0 };
          Action.Stop { vm; host = 0 };
          Action.Migrate { vm; src = 0; dst = 1 };
          Action.Suspend { vm; host = 0 };
          Action.Resume { vm; src = 0; dst = 0 };
          Action.Resume { vm; src = 0; dst = 1 };
          Action.Suspend_ram { vm; host = 0 };
          Action.Resume_ram { vm; host = 0 };
        ])
    sizes

(* -- cluster ----------------------------------------------------------------- *)

let mk_cluster ?(node_count = 2) ?(cpu = 200) ?(mem = 3584) ~programs
    ~memories () =
  let engine = Vsim.Engine.create () in
  let nodes =
    Array.init node_count (fun i ->
        Node.make ~id:i ~name:(Printf.sprintf "N%d" i) ~cpu_capacity:cpu
          ~memory_mb:mem)
  in
  let vms =
    Array.of_list
      (List.mapi
         (fun i m -> Vm.make ~id:i ~name:(Printf.sprintf "vm%d" i) ~memory_mb:m)
         memories)
  in
  let config = Configuration.make ~nodes ~vms in
  let vjobs =
    [ Vjob.make ~id:0 ~name:"j0" ~vms:(List.mapi (fun i _ -> i) memories) () ]
  in
  let programs_arr = Array.of_list programs in
  let cluster =
    Vsim.Cluster.create ~engine ~config ~vjobs
      ~programs:(fun vm -> programs_arr.(vm))
      ()
  in
  (engine, cluster, vjobs)

let run_vms cluster vms_hosts =
  Vsim.Cluster.set_config cluster
    (List.fold_left
       (fun cfg (vm, node) -> Action.apply cfg (Action.Run { vm; dst = node }))
       (Vsim.Cluster.config cluster) vms_hosts)

let run_all vms_hosts engine cluster =
  (* place VMs and let the engine drain *)
  run_vms cluster vms_hosts;
  Vsim.Engine.run engine

let test_cluster_full_speed_compute () =
  let engine, cluster, _ =
    mk_cluster ~programs:[ [ Program.Compute 100. ] ] ~memories:[ 512 ] ()
  in
  run_all [ (0, 0) ] engine cluster;
  check_bool "complete" true (Vsim.Cluster.all_complete cluster);
  (* full speed: 100 cpu-seconds in ~100 s *)
  let _, t = List.hd (Vsim.Cluster.completions cluster) in
  check_float 0.5 "wall time" 100. t

let test_cluster_contention_halves_speed () =
  (* three full-CPU VMs on one 2-core node: each runs at 2/3 speed *)
  let engine, cluster, _ =
    mk_cluster
      ~programs:
        [ [ Program.Compute 100. ]; [ Program.Compute 100. ]; [ Program.Compute 100. ] ]
      ~memories:[ 512; 512; 512 ] ()
  in
  run_all [ (0, 0); (1, 0); (2, 0) ] engine cluster;
  let _, t = List.hd (Vsim.Cluster.completions cluster) in
  check_float 1.0 "2/3 speed" 150. t

let test_cluster_idle_phase_wall_clock () =
  let engine, cluster, _ =
    mk_cluster
      ~programs:[ [ Program.Idle 50.; Program.Compute 10. ] ]
      ~memories:[ 512 ] ()
  in
  run_all [ (0, 0) ] engine cluster;
  let _, t = List.hd (Vsim.Cluster.completions cluster) in
  check_float 0.5 "50 idle + 10 compute" 60. t

let test_cluster_launch_requires_all_vms () =
  (* a 2-VM vjob: running only one VM must not start the program *)
  let engine, cluster, _ =
    mk_cluster
      ~programs:[ [ Program.Compute 10. ]; [ Program.Compute 10. ] ]
      ~memories:[ 512; 512 ] ()
  in
  let config =
    Action.apply (Vsim.Cluster.config cluster) (Action.Run { vm = 0; dst = 0 })
  in
  Vsim.Cluster.set_config cluster config;
  Vsim.Engine.run ~until:100. engine;
  check_bool "not complete" false (Vsim.Cluster.all_complete cluster);
  (* now run the second VM: the vjob launches and finishes *)
  let config =
    Action.apply (Vsim.Cluster.config cluster) (Action.Run { vm = 1; dst = 1 })
  in
  Vsim.Cluster.set_config cluster config;
  Vsim.Engine.run engine;
  check_bool "complete" true (Vsim.Cluster.all_complete cluster)

let test_cluster_suspension_freezes_progress () =
  let engine, cluster, _ =
    mk_cluster ~programs:[ [ Program.Compute 100. ] ] ~memories:[ 512 ] ()
  in
  let config =
    Action.apply (Vsim.Cluster.config cluster) (Action.Run { vm = 0; dst = 0 })
  in
  Vsim.Cluster.set_config cluster config;
  (* run 30 s, suspend for 100 s, resume *)
  Vsim.Engine.run ~until:30. engine;
  ignore
    (Vsim.Engine.schedule engine ~at:30. (fun () ->
         Vsim.Cluster.set_config cluster
           (Action.apply (Vsim.Cluster.config cluster)
              (Action.Suspend { vm = 0; host = 0 }))));
  ignore
    (Vsim.Engine.schedule engine ~at:130. (fun () ->
         Vsim.Cluster.set_config cluster
           (Action.apply (Vsim.Cluster.config cluster)
              (Action.Resume { vm = 0; src = 0; dst = 0 }))));
  Vsim.Engine.run engine;
  let _, t = List.hd (Vsim.Cluster.completions cluster) in
  check_float 1.0 "frozen 100 s" 200. t

let test_cluster_demand_follows_phases () =
  let engine, cluster, _ =
    mk_cluster
      ~programs:[ [ Program.Compute 10.; Program.Idle 50. ] ]
      ~memories:[ 512 ] ()
  in
  let config =
    Action.apply (Vsim.Cluster.config cluster) (Action.Run { vm = 0; dst = 0 })
  in
  Vsim.Cluster.set_config cluster config;
  check_int "computing" Program.compute_demand (Vsim.Cluster.vm_demand cluster 0);
  Vsim.Engine.run ~until:20. engine;
  check_int "idling" Program.idle_demand (Vsim.Cluster.vm_demand cluster 0)

let test_cluster_decel_during_op () =
  let engine, cluster, _ =
    mk_cluster ~programs:[ [ Program.Compute 100. ] ] ~memories:[ 512 ] ()
  in
  let config =
    Action.apply (Vsim.Cluster.config cluster) (Action.Run { vm = 0; dst = 0 })
  in
  Vsim.Cluster.set_config cluster config;
  (* a remote operation holds node 0 from t=0 to t=60 *)
  Vsim.Cluster.register_op cluster ~nodes:[ 0 ] ~local:false;
  Vsim.Cluster.recompute cluster;
  ignore
    (Vsim.Engine.schedule engine ~at:60. (fun () ->
         Vsim.Cluster.unregister_op cluster ~nodes:[ 0 ] ~local:false;
         Vsim.Cluster.recompute cluster));
  Vsim.Engine.run engine;
  let _, t = List.hd (Vsim.Cluster.completions cluster) in
  (* 60 s at 1/1.5 speed = 40 cpu-s done, then 60 more at full speed *)
  check_float 1.0 "decelerated" 120. t

let test_cluster_unchanged_rate_keeps_event () =
  let engine, cluster, _ =
    mk_cluster ~node_count:3
      ~programs:[ [ Program.Compute 100. ]; [ Program.Compute 100. ] ]
      ~memories:[ 512; 512 ] ()
  in
  run_vms cluster [ (0, 0); (1, 1) ];
  check_int "one phase end per VM" 2 (Vsim.Engine.pending engine);
  Vsim.Engine.run ~until:10. engine;
  Vsim.Cluster.recompute cluster;
  check_int "idle recompute schedules nothing" 2 (Vsim.Engine.pending engine);
  (* an operation on the empty node 2 moves no VM's rate *)
  Vsim.Cluster.register_op cluster ~nodes:[ 2 ] ~local:false;
  Vsim.Cluster.recompute cluster;
  check_int "untouched rates keep their events" 2 (Vsim.Engine.pending engine);
  check_int "nothing cancelled" 0 (Vsim.Engine.cancelled engine);
  (* one on node 1 slows VM 1: its event is replaced, not duplicated *)
  Vsim.Cluster.register_op cluster ~nodes:[ 1 ] ~local:false;
  Vsim.Cluster.recompute cluster;
  check_int "replaced, not added" 2 (Vsim.Engine.pending engine);
  check_int "superseded event cancelled" 1 (Vsim.Engine.cancelled engine)

let test_cluster_untouched_vm_matches_eager_resync () =
  (* VM 0 shares node 0 (1.5 cores) with VM 1: both progress at 0.75.
     VM 2 on node 1 is slowed and sped up by operations at awkward
     instants, each a recompute; VM 0's rate never moves, so it keeps
     the event scheduled at launch. *)
  let engine, cluster, _ =
    mk_cluster ~cpu:150
      ~programs:
        [
          [ Program.Compute 100.; Program.Idle 1000. ];
          [ Program.Compute 1000. ];
          [ Program.Compute 1000. ];
        ]
      ~memories:[ 512; 512; 512 ] ()
  in
  run_vms cluster [ (0, 0); (1, 0); (2, 1) ];
  let rate = 0.75 in
  let ends = ref [] in
  Vsim.Cluster.on_change cluster (fun () ->
      if Vsim.Cluster.vm_demand cluster 0 = Program.idle_demand && !ends = []
      then ends := [ Vsim.Engine.now engine ]);
  let recomputes = List.init 40 (fun i -> 0.1 +. (float_of_int i *. 3.3)) in
  List.iteri
    (fun i at ->
      ignore
        (Vsim.Engine.schedule engine ~at (fun () ->
             if i mod 2 = 0 then
               Vsim.Cluster.register_op cluster ~nodes:[ 1 ] ~local:true
             else Vsim.Cluster.unregister_op cluster ~nodes:[ 1 ] ~local:true;
             Vsim.Cluster.recompute cluster)))
    recomputes;
  Vsim.Engine.run ~until:200. engine;
  (* the end time an eager resync at every recompute would compute *)
  let eager =
    let remaining = ref 100. and last = ref 0. and end_ = ref (100. /. rate) in
    List.iter
      (fun at ->
        if at < !end_ then begin
          remaining := !remaining -. (rate *. (at -. !last));
          last := at;
          end_ := at +. (!remaining /. rate)
        end)
      recomputes;
    !end_
  in
  match !ends with
  | [ t ] -> check_float 1e-9 "phase end as eagerly resynced" eager t
  | _ -> Alcotest.fail "VM 0 never finished its compute phase"

let test_cluster_launch_and_crash_reschedule () =
  let engine, cluster, _ =
    mk_cluster
      ~programs:[ [ Program.Compute 100. ]; [ Program.Compute 100. ] ]
      ~memories:[ 512; 512 ] ()
  in
  run_vms cluster [ (0, 0) ];
  check_int "not launched: no phase end" 0 (Vsim.Engine.pending engine);
  run_vms cluster [ (1, 1) ];
  check_int "launch schedules both" 2 (Vsim.Engine.pending engine);
  (* at t=10 the crash resets the vjob: both events go, with nothing to
     replace them; resubmitted on node 1 it relaunches with its whole
     program *)
  ignore
    (Vsim.Engine.schedule engine ~at:10. (fun () ->
         check_bool "vjob reset" true (Vsim.Cluster.crash_node cluster 0 = [ 0 ]);
         check_int "reset cancels both" 0 (Vsim.Engine.pending engine);
         run_vms cluster [ (0, 1); (1, 1) ];
         check_int "relaunch schedules both" 2 (Vsim.Engine.pending engine)));
  Vsim.Engine.run engine;
  let _, t = List.hd (Vsim.Cluster.completions cluster) in
  check_float 1e-9 "program restarts at the relaunch" 110. t

(* -- executor ----------------------------------------------------------------- *)

let test_executor_applies_plan () =
  let engine, cluster, _ =
    mk_cluster
      ~programs:[ [ Program.Compute 1000. ]; [ Program.Compute 1000. ] ]
      ~memories:[ 512; 512 ] ()
  in
  let plan =
    Plan.make [ [ Action.Run { vm = 0; dst = 0 }; Action.Run { vm = 1; dst = 1 } ] ]
  in
  let record = ref None in
  Vsim.Executor.execute cluster plan ~on_done:(fun r -> record := Some r);
  Vsim.Engine.run ~until:50. engine;
  (match !record with
  | None -> Alcotest.fail "executor did not finish"
  | Some r ->
    check_int "runs" 2 r.Vsim.Executor.runs;
    (* both boots in parallel: ~6 s *)
    check_float 1.0 "parallel boot" 6. (Vsim.Executor.duration r));
  check_bool "both running" true
    (Configuration.running_vms (Vsim.Cluster.config cluster) = [ 0; 1 ])

let test_executor_pools_sequential () =
  let engine, cluster, _ =
    mk_cluster
      ~programs:[ [ Program.Compute 1000. ]; [ Program.Compute 1000. ] ]
      ~memories:[ 512; 512 ] ()
  in
  let plan =
    Plan.make
      [
        [ Action.Run { vm = 0; dst = 0 } ];
        [ Action.Run { vm = 1; dst = 1 } ];
      ]
  in
  let record = ref None in
  Vsim.Executor.execute cluster plan ~on_done:(fun r -> record := Some r);
  Vsim.Engine.run ~until:50. engine;
  match !record with
  | None -> Alcotest.fail "executor did not finish"
  | Some r -> check_float 1.0 "two boots back to back" 12. (Vsim.Executor.duration r)

let test_executor_pipelines_suspends () =
  let engine, cluster, _ =
    mk_cluster
      ~programs:[ [ Program.Compute 10000. ]; [ Program.Compute 10000. ] ]
      ~memories:[ 512; 512 ] ()
  in
  let config =
    List.fold_left
      (fun cfg (vm, node) -> Action.apply cfg (Action.Run { vm; dst = node }))
      (Vsim.Cluster.config cluster)
      [ (0, 0); (1, 1) ]
  in
  Vsim.Cluster.set_config cluster config;
  let plan =
    Plan.make
      [ [ Action.Suspend { vm = 0; host = 0 }; Action.Suspend { vm = 1; host = 1 } ] ]
  in
  let record = ref None in
  Vsim.Executor.execute cluster plan ~on_done:(fun r -> record := Some r);
  Vsim.Engine.run engine;
  match !record with
  | None -> Alcotest.fail "executor did not finish"
  | Some r ->
    let single =
      Vsim.Perf_model.suspend ~memory_mb:512 ~transfer:Vsim.Perf_model.Local
    in
    (* pipelined: second starts 1 s after the first, both overlap *)
    check_bool "overlapping, staggered by 1s" true
      (Vsim.Executor.duration r >= single
      && Vsim.Executor.duration r <= single +. 1.5);
    check_int "two suspends" 2 r.Vsim.Executor.suspends

(* -- continuous estimate --------------------------------------------------- *)

let test_continuous_estimate_beats_pool_execution () =
  (* pool 1 = suspend(2 GB, ~100 s) + migrate(512 MB, ~8 s); pool 2 =
     resume(2 GB, ~80 s), which needs only the migration's memory. The
     barrier-free estimate overlaps the resume with the suspend, so it
     stays well under what the pool executor takes on the same plan. *)
  let engine, cluster, _ =
    mk_cluster ~node_count:3 ~mem:2048
      ~programs:
        [
          [ Program.Compute 10000. ];
          [ Program.Compute 10000. ];
          [ Program.Compute 10000. ];
        ]
      ~memories:[ 2048; 512; 2048 ] ()
  in
  let config =
    List.fold_left
      (fun cfg (vm, node) -> Action.apply cfg (Action.Run { vm; dst = node }))
      (Vsim.Cluster.config cluster)
      [ (0, 0); (1, 1); (2, 1) ]
  in
  let config = Action.apply config (Action.Suspend { vm = 2; host = 1 }) in
  Vsim.Cluster.set_config cluster config;
  let plan =
    Plan.make
      [
        [
          Action.Suspend { vm = 0; host = 0 };
          Action.Migrate { vm = 1; src = 1; dst = 2 };
        ];
        [ Action.Resume { vm = 2; src = 1; dst = 1 } ];
      ]
  in
  let estimate =
    Continuous.schedule ~current:config ~demand:(Vsim.Cluster.demand cluster)
      ~plan ()
  in
  check_int "every action scheduled" (Plan.action_count plan)
    (List.length (Continuous.entries estimate));
  let record = ref None in
  Vsim.Executor.execute cluster plan ~on_done:(fun r -> record := Some r);
  Vsim.Engine.run ~until:1000. engine;
  match !record with
  | None -> Alcotest.fail "pool run did not finish"
  | Some r ->
    check_bool "estimate much shorter than the pools" true
      (Continuous.makespan estimate < 0.8 *. Vsim.Executor.duration r)

(* -- metrics ------------------------------------------------------------------ *)

let test_metrics_overload_visible () =
  let engine, cluster, _ =
    mk_cluster ~node_count:1
      ~programs:
        [ [ Program.Compute 50. ]; [ Program.Compute 50. ]; [ Program.Compute 50. ] ]
      ~memories:[ 512; 512; 512 ] ()
  in
  let metrics = Vsim.Metrics.start cluster in
  let config =
    List.fold_left
      (fun cfg (vm, node) -> Action.apply cfg (Action.Run { vm; dst = node }))
      (Vsim.Cluster.config cluster)
      [ (0, 0); (1, 0); (2, 0) ]
  in
  Vsim.Cluster.set_config cluster config;
  (* the sampler reschedules forever: bound the run, then stop it *)
  Vsim.Engine.run ~until:60. engine;
  Vsim.Metrics.stop metrics;
  (* 3 full-CPU VMs on 2 cores: demand 150% of capacity *)
  check_float 1.0 "peak demand 150%" 150. (Vsim.Metrics.peak_cpu_demand metrics);
  let points = Vsim.Metrics.points metrics in
  let peak_mem =
    List.fold_left (fun acc p -> max acc p.Vsim.Metrics.mem_used_mb) 0 points
  in
  check_int "mem used" 1536 peak_mem;
  List.iter
    (fun pt ->
      check_bool "used capped at 100" true (pt.Vsim.Metrics.cpu_used_pct <= 100.001))
    points;
  (* the single node is active while the VMs run *)
  let peak_active =
    List.fold_left (fun acc p -> max acc p.Vsim.Metrics.active_nodes) 0 points
  in
  check_int "one active node" 1 peak_active;
  check_bool "node-seconds accumulated" true
    (Vsim.Metrics.node_seconds metrics > 0.)

let test_metrics_stop_idempotent () =
  let engine, cluster, _ =
    mk_cluster ~programs:[ [ Program.Compute 50. ] ] ~memories:[ 512 ] ()
  in
  let metrics = Vsim.Metrics.start cluster in
  Vsim.Engine.run ~until:95. engine;
  let before = List.length (Vsim.Metrics.points metrics) in
  check_int "sampled while running" 4 before;
  Vsim.Metrics.stop metrics;
  Vsim.Metrics.stop metrics; (* second stop is a no-op *)
  (* the pending sample was cancelled: draining the queue adds nothing *)
  Vsim.Engine.run ~until:200. engine;
  check_int "no points after stop" before
    (List.length (Vsim.Metrics.points metrics));
  Vsim.Metrics.stop metrics

let test_metrics_to_json () =
  let engine, cluster, _ =
    mk_cluster ~programs:[ [ Program.Compute 50. ] ] ~memories:[ 512 ] ()
  in
  let metrics = Vsim.Metrics.start cluster in
  Vsim.Engine.run ~until:65. engine;
  Vsim.Metrics.stop metrics;
  let module Json = Entropy_obs.Json in
  let json = Vsim.Metrics.to_json metrics in
  (* round-trip through the parser and check the shape *)
  let json = Json.parse (Json.to_string json) in
  let field name j = Option.get (Json.member name j) in
  let number j = Option.get (Json.number j) in
  let points = Option.get (Json.to_list (field "points" json)) in
  check_int "three samples" 3 (List.length points);
  List.iter
    (fun p ->
      check_bool "time >= 0" true (number (field "time" p) >= 0.);
      check_bool "mem_used_mb present" true
        (number (field "mem_used_mb" p) >= 0.))
    points

(* -- runner (end to end) ------------------------------------------------------ *)

let testbed_nodes n =
  Array.init n (fun i -> Node.testbed ~id:i ~name:(Printf.sprintf "N%d" i))

let test_runner_single_vjob () =
  let traces = [ Trace.make ~seed:0 ~vm_count:9 Nasgrid.Ed Nasgrid.W ] in
  let r = Vsim.Runner.run_entropy ~cp_timeout:0.2 ~nodes:(testbed_nodes 11) ~traces () in
  check_int "one completion" 1 (List.length r.Vsim.Runner.completions);
  (* ED.W: 60 s of work; plus boot and loop latency, well under 5 min *)
  check_bool "fast completion" true (r.Vsim.Runner.makespan < 300.);
  check_bool "at least one switch (the runs)" true
    (List.length r.Vsim.Runner.switches >= 1)

let test_runner_overload_suspends_and_completes () =
  (* 8 vjobs of 9 full-CPU VMs on 11 nodes (22 cores): must suspend *)
  let traces =
    List.init 8 (fun i ->
        let family = List.nth Nasgrid.families (i mod 4) in
        Trace.make ~seed:i ~vm_count:9 family Nasgrid.W)
  in
  let r = Vsim.Runner.run_entropy ~cp_timeout:0.2 ~nodes:(testbed_nodes 11) ~traces () in
  check_int "all complete" 8 (List.length r.Vsim.Runner.completions);
  let total_suspends =
    List.fold_left (fun acc s -> acc + s.Vsim.Executor.suspends) 0 r.Vsim.Runner.switches
  in
  check_bool "suspends happened" true (total_suspends > 0);
  check_bool "finite makespan" true (r.Vsim.Runner.makespan < 20_000.)

let test_runner_beats_static_fcfs () =
  (* the headline claim: dynamic consolidation + context switches beat
     the static FCFS allocation *)
  let traces =
    List.init 8 (fun i ->
        let family = List.nth Nasgrid.families (i mod 4) in
        Trace.make ~seed:i ~vm_count:9 family Nasgrid.W)
  in
  let entropy =
    Vsim.Runner.run_entropy ~cp_timeout:0.2 ~nodes:(testbed_nodes 11) ~traces ()
  in
  let static =
    Batch.Static_alloc.run ~capacity:11 ~node_cpu:200 ~node_mem:3584 traces
  in
  let fcfs = Batch.Static_alloc.makespan static in
  check_bool "entropy at least 20% faster" true
    (entropy.Vsim.Runner.makespan < 0.8 *. fcfs)

let test_runner_switch_cost_duration_correlate () =
  let traces =
    List.init 8 (fun i ->
        let family = List.nth Nasgrid.families (i mod 4) in
        Trace.make ~seed:i ~vm_count:9 family Nasgrid.W)
  in
  let r = Vsim.Runner.run_entropy ~cp_timeout:0.2 ~nodes:(testbed_nodes 11) ~traces () in
  (* Figure 11's shape: zero-cost switches are fast (run/stop only);
     expensive switches (suspends/resumes) take minutes *)
  let cheap =
    List.filter (fun s -> s.Vsim.Executor.cost = 0) r.Vsim.Runner.switches
  in
  let dear =
    List.filter (fun s -> s.Vsim.Executor.cost > 10_000) r.Vsim.Runner.switches
  in
  check_bool "has cheap switches" true (cheap <> []);
  check_bool "has dear switches" true (dear <> []);
  (* run/stop-only switches: bounded by a shutdown plus a boot per pool *)
  List.iter
    (fun s -> check_bool "cheap is fast" true (Vsim.Executor.duration s <= 40.))
    cheap;
  List.iter
    (fun s -> check_bool "dear is slow" true (Vsim.Executor.duration s > 60.))
    dear

let test_runner_recovers_from_failures () =
  (* every first attempt of each migration fails; the repair chain and
     the loop replan and the workload still completes *)
  let failed_once = Hashtbl.create 16 in
  let should_fail = function
    | Action.Migrate { vm; _ } ->
      if Hashtbl.mem failed_once vm then false
      else begin
        Hashtbl.replace failed_once vm ();
        true
      end
    | _ -> false
  in
  let traces =
    List.init 3 (fun i -> Trace.make ~seed:i ~vm_count:4 Nasgrid.Ed Nasgrid.W)
  in
  let r =
    Vsim.Runner.run_entropy ~cp_timeout:0.2
      ~injector:(Entropy_fault.Injector.of_predicate should_fail)
      ~policy:
        (Entropy_fault.Supervisor.make_policy ~timeout_factor:infinity
           ~max_retries:0 ())
      ~nodes:(testbed_nodes 4) ~traces ()
  in
  check_int "all complete despite failures" 3
    (List.length r.Vsim.Runner.completions);
  check_bool "finite" true (r.Vsim.Runner.makespan < 10_000.)

let test_executor_failure_keeps_state () =
  let engine, cluster, _ =
    mk_cluster
      ~programs:[ [ Program.Compute 1000. ] ]
      ~memories:[ 512 ] ()
  in
  let plan = Plan.make [ [ Action.Run { vm = 0; dst = 0 } ] ] in
  let record = ref None in
  Vsim.Executor.execute
    ~injector:(Entropy_fault.Injector.of_predicate (fun _ -> true))
    ~policy:
      (Entropy_fault.Supervisor.make_policy ~timeout_factor:infinity
         ~max_retries:0 ())
    cluster plan
    ~on_done:(fun r -> record := Some r);
  Vsim.Engine.run ~until:50. engine;
  (match !record with
  | Some r -> check_int "one failure" 1 r.Vsim.Executor.failed
  | None -> Alcotest.fail "executor did not finish");
  check_bool "still waiting" true
    (Configuration.state (Vsim.Cluster.config cluster) 0 = Configuration.Waiting)

(* -- online rms ------------------------------------------------------------------ *)

let test_rms_simulate_frees_early () =
  (* job0's slot is 20 but it actually runs 10: the online scheduler
     starts job1 at 10, the rigid one at 20 *)
  let j0 =
    Batch.Job.make ~id:0 ~name:"j0" ~nodes_required:10 ~walltime:20. ~actual:10. ()
  in
  let j1 =
    Batch.Job.make ~id:1 ~name:"j1" ~nodes_required:10 ~walltime:10. ~actual:10. ()
  in
  let online = Batch.Rms.simulate ~capacity:10 [ j0; j1 ] in
  let rigid = Batch.Rms.fcfs ~release:Batch.Rms.Walltime ~capacity:10 [ j0; j1 ] in
  check_float 1e-9 "online makespan" 20. online.Batch.Rms.makespan;
  check_float 1e-9 "rigid makespan" 30. rigid.Batch.Rms.makespan

let test_rms_simulate_backfill_vs_strict () =
  let mk id nodes walltime =
    Batch.Job.make ~id ~name:(Printf.sprintf "j%d" id) ~nodes_required:nodes
      ~walltime ~actual:walltime ()
  in
  let jobs = [ mk 0 8 10.; mk 1 8 10.; mk 2 2 10. ] in
  let bf = Batch.Rms.simulate ~backfill:true ~capacity:10 jobs in
  let strict = Batch.Rms.simulate ~backfill:false ~capacity:10 jobs in
  let start sched id =
    let p =
      List.find
        (fun (p : Batch.Job.placement) -> p.Batch.Job.job.Batch.Job.id = id)
        sched.Batch.Rms.placements
    in
    p.Batch.Job.start
  in
  check_float 1e-9 "backfilled at 0" 0. (start bf 2);
  check_float 1e-9 "strict waits" 10. (start strict 2)

let test_rms_simulate_staggered_arrivals () =
  let mk id arrival nodes =
    Batch.Job.make ~id ~name:(Printf.sprintf "j%d" id) ~arrival
      ~nodes_required:nodes ~walltime:10. ~actual:10. ()
  in
  let jobs = [ mk 0 0. 5; mk 1 3. 5; mk 2 50. 10 ] in
  let s = Batch.Rms.simulate ~capacity:10 jobs in
  let start id =
    let p =
      List.find
        (fun (p : Batch.Job.placement) -> p.Batch.Job.job.Batch.Job.id = id)
        s.Batch.Rms.placements
    in
    p.Batch.Job.start
  in
  check_float 1e-9 "j1 at its arrival" 3. (start 1);
  check_float 1e-9 "j2 at its arrival" 50. (start 2);
  check_float 1e-9 "makespan" 60. s.Batch.Rms.makespan

(* -- monitor ------------------------------------------------------------------- *)

let test_collector_smoothing () =
  let readings = ref [] in
  let clock = ref 0. in
  let source () =
    match !readings with
    | [] -> (!clock, Chunked.make 1 0)
    | r :: rest ->
      readings := rest;
      clock := !clock +. 5.;
      (!clock, Chunked.make 1 r)
  in
  let collector = Vmonitor.Collector.create source in
  readings := [ 100; 0; 100 ];
  Vmonitor.Collector.poll collector;
  Vmonitor.Collector.poll collector;
  Vmonitor.Collector.poll collector;
  (* samples land at t=5,10,15; the 10 s window from t=15 includes all
     three (inclusive bound): mean (100+0+100)/3 = 66 *)
  let d = Vmonitor.Collector.demand collector in
  check_int "smoothed" 66 (Demand.cpu d 0)

let test_history_average_fallback () =
  let h = Vmonitor.History.create () in
  Vmonitor.History.add h (Vmonitor.Sample.make ~time:0. ~cpu:(Chunked.make 1 42));
  (* a window far in the future is empty: fall back to the latest *)
  Alcotest.(check (option int))
    "fallback" (Some 42)
    (Vmonitor.History.average_cpu h ~now:1000. ~span:10. 0)

let test_collector_poll_count_and_bootstrap () =
  let clock = ref 0. in
  let source () =
    clock := !clock +. 1.;
    (!clock, Chunked.make 1 7)
  in
  let c = Vmonitor.Collector.create source in
  check_int "no polls yet" 0 (Vmonitor.Collector.polls c);
  (* demand on an empty history polls once by itself *)
  let d = Vmonitor.Collector.demand c in
  check_int "bootstrap poll" 1 (Vmonitor.Collector.polls c);
  check_int "value" 7 (Demand.cpu d 0)

(* a collector over a scripted list of raw readings *)
let scripted_collector readings =
  let remaining = ref readings in
  let source () =
    match !remaining with
    | [] -> Alcotest.fail "collector polled past the script"
    | (time, cpu) :: rest ->
      remaining := rest;
      (time, Chunked.of_array cpu)
  in
  Vmonitor.Collector.create source

let test_collector_drops_bad_samples () =
  let c =
    scripted_collector
      [
        (1., [| 50 |]);
        (Float.nan, [| 50 |]) (* non-finite timestamp *);
        (0.5, [| 50 |]) (* clock jumped backwards *);
        (2., [| -3 |]) (* impossible CPU *);
        (3., [| -1 |]) (* still impossible after a sign glitch *);
        (4., [| 60 |]);
      ]
  in
  for _ = 1 to 6 do
    Vmonitor.Collector.poll c
  done;
  check_int "all polls counted" 6 (Vmonitor.Collector.polls c);
  check_int "four readings dropped" 4 (Vmonitor.Collector.dropped c);
  check_int "only valid samples in history" 2
    (Vmonitor.History.length (Vmonitor.Collector.history c));
  (* the garbage never reaches the smoothed demand *)
  let d = Vmonitor.Collector.demand c in
  check_int "smoothed over the two good readings" 55 (Demand.cpu d 0)

let test_collector_keeps_equal_timestamps () =
  (* several services legitimately poll within the same instant; equal
     timestamps must be admitted (only strictly-backwards is dropped) *)
  let c = scripted_collector [ (5., [| 10 |]); (5., [| 20 |]); (5., [| 30 |]) ] in
  for _ = 1 to 3 do
    Vmonitor.Collector.poll c
  done;
  check_int "nothing dropped" 0 (Vmonitor.Collector.dropped c);
  check_int "all samples kept" 3
    (Vmonitor.History.length (Vmonitor.Collector.history c))

(* Readings that are edits of the previous one share its unmoved
   chunks with the latest sample, and a negative value is dropped in
   whichever chunk it lands: the one chunk validation scans. Over three
   chunks (130 VMs). *)
let test_collector_scans_once () =
  let r0 = Chunked.init 130 (fun vm -> vm) in
  let r1 = Chunked.set r0 70 5 in
  let script =
    ref
      [
        (1., r0);
        (2., r0) (* unchanged: nothing to scan *);
        (3., r1);
        (4., Chunked.set r1 129 (-1)) (* negative in the last chunk *);
        (5., Chunked.set r1 0 (-2)) (* and in the first *);
        (6., Chunked.set r1 129 3);
      ]
  in
  let c =
    Vmonitor.Collector.create (fun () ->
        match !script with
        | [] -> Alcotest.fail "collector polled past the script"
        | r :: rest ->
          script := rest;
          r)
  in
  for _ = 1 to 6 do
    Vmonitor.Collector.poll c
  done;
  check_int "two negative readings dropped" 2 (Vmonitor.Collector.dropped c);
  check_int "four samples kept" 4
    (Vmonitor.History.length (Vmonitor.Collector.history c));
  (match Vmonitor.History.latest (Vmonitor.Collector.history c) with
  | Some s ->
    check_bool "latest shares the unmoved chunks" true
      (Chunked.shares_chunk (Vmonitor.Sample.readings s) r1 0
      && Chunked.shares_chunk (Vmonitor.Sample.readings s) r1 1
      && not (Chunked.shares_chunk (Vmonitor.Sample.readings s) r1 2))
  | None -> Alcotest.fail "expected a latest sample");
  (* the window at t=6 (t >= -4) holds all four; VM 70 read 70 then 5 *)
  let d = Vmonitor.Collector.demand c in
  check_int "VM 0" 0 (Demand.cpu d 0);
  check_int "VM 70" ((70 + 70 + 5 + 5) / 4) (Demand.cpu d 70);
  check_int "VM 129" ((129 + 129 + 129 + 3) / 4) (Demand.cpu d 129)

let test_collector_drop_counter_metric () =
  let module Obs = Entropy_obs.Obs in
  let module Metrics = Entropy_obs.Metrics in
  let was = !Obs.enabled in
  Obs.enabled := true;
  let c = scripted_collector [ (1., [| 10 |]); (0., [| 10 |]) ] in
  Vmonitor.Collector.poll c;
  Vmonitor.Collector.poll c;
  Obs.enabled := was;
  check_int "collector counts the drop" 1 (Vmonitor.Collector.dropped c);
  check_bool "monitor.dropped_samples advanced" true
    (Metrics.counter_value (Metrics.counter "monitor.dropped_samples") >= 1)

let test_engine_max_events () =
  let e = Vsim.Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Vsim.Engine.schedule_after e ~delay:1. tick)
  in
  ignore (Vsim.Engine.schedule_after e ~delay:1. tick);
  Vsim.Engine.run ~max_events:5 e;
  check_int "bounded" 5 !count

let test_history_window_and_eviction () =
  let h = Vmonitor.History.create ~capacity:3 () in
  List.iter
    (fun (t, v) ->
      Vmonitor.History.add h (Vmonitor.Sample.make ~time:t ~cpu:(Chunked.make 1 v)))
    [ (0., 1); (10., 2); (20., 3); (30., 4) ];
  check_int "capacity respected" 3 (Vmonitor.History.length h);
  (match Vmonitor.History.latest h with
  | Some s -> check_int "latest" 4 (Vmonitor.Sample.cpu s 0)
  | None -> Alcotest.fail "expected latest");
  check_int "window size" 2
    (List.length (Vmonitor.History.window h ~now:30. ~span:10.))

(* The ring-buffer history against a newest-first list reference, on
   random capacities and timestamps (repeats and reorderings included),
   queried at every window that matters. *)
let history_matches_list_model =
  QCheck.Test.make ~name:"ring history agrees with a list model" ~count:300
    QCheck.(
      pair (int_range 1 8)
        (list_of_size Gen.(0 -- 20) (pair (int_bound 6) (int_bound 300))))
    (fun (capacity, adds) ->
      let h = Vmonitor.History.create ~capacity () in
      let model = ref [] in
      let view s = (Vmonitor.Sample.time s, Vmonitor.Sample.cpu s 0) in
      List.for_all
        (fun (time, cpu) ->
          let time = float_of_int time in
          Vmonitor.History.add h
            (Vmonitor.Sample.make ~time ~cpu:(Chunked.make 1 cpu));
          model := List.filteri (fun i _ -> i < capacity) ((time, cpu) :: !model);
          let window ~now ~span =
            List.filter (fun (t, _) -> t >= now -. span) !model
          in
          let average ~now ~span =
            match window ~now ~span with
            | [] -> Option.map snd (List.nth_opt !model 0)
            | w -> Some (List.fold_left (fun a (_, c) -> a + c) 0 w / List.length w)
          in
          Vmonitor.History.length h = List.length !model
          && Option.map view (Vmonitor.History.latest h) = List.nth_opt !model 0
          && List.for_all
               (fun (now, span) ->
                 List.map view (Vmonitor.History.window h ~now ~span)
                 = window ~now ~span
                 && Vmonitor.History.average_cpu h ~now ~span 0
                    = average ~now ~span)
               (List.concat_map
                  (fun now -> List.map (fun span -> (now, span)) [ 0.; 1.; 2.5; 10. ])
                  [ 0.; 2.; 3.; 6.; 9. ]))
        adds)

(* Collector.demand is the per-VM window average when the source hands
   out each reading as an edit of the previous one: some polls write
   nothing (the same vector again), the others a few VMs of a 130-VM
   reading (three chunks), so windows mix shared and moved chunks. *)
let collector_demand_is_history_average =
  let vms = 130 in
  QCheck.Test.make ~name:"collector demand = per-VM history average" ~count:200
    QCheck.(
      list_of_size Gen.(1 -- 30)
        (pair (int_bound 4)
           (list_of_size Gen.(0 -- 3) (pair (int_bound (vms - 1)) (int_bound 200)))))
    (fun readings ->
      let clock = ref 0. and last = ref (Chunked.make vms 0) in
      let script = ref readings in
      let source () =
        match !script with
        | [] -> (!clock, !last)
        | (step, writes) :: rest ->
          script := rest;
          clock := !clock +. float_of_int step;
          last :=
            Chunked.edit !last (fun e ->
                List.iter (fun (vm, v) -> Chunked.write e vm v) writes);
          (!clock, !last)
      in
      let c = Vmonitor.Collector.create source in
      List.for_all
        (fun _ ->
          Vmonitor.Collector.poll c;
          let d = Vmonitor.Collector.demand c in
          let h = Vmonitor.Collector.history c in
          List.for_all
            (fun vm ->
              Some (Demand.cpu d vm)
              = Vmonitor.History.average_cpu h ~now:!clock ~span:10. vm
              && Option.map (fun s -> Vmonitor.Sample.cpu s vm)
                   (Vmonitor.History.latest h)
                 = Some (Chunked.get !last vm))
            (List.init vms Fun.id))
        readings)

(* -- fault injection ----------------------------------------------------------- *)

module Injector = Entropy_fault.Injector
module Supervisor = Entropy_fault.Supervisor
module Verifier = Entropy_analysis.Verifier

let test_engine_cancelled_not_pending () =
  (* regression: a cancelled event used to inflate [pending] until the
     heap drained, making "queue empty" checks unreliable *)
  let e = Vsim.Engine.create () in
  let h = Vsim.Engine.schedule e ~at:1. (fun () -> ()) in
  let live = Vsim.Engine.schedule e ~at:2. (fun () -> ()) in
  check_int "two queued" 2 (Vsim.Engine.pending e);
  Vsim.Engine.cancel e h;
  check_int "one live event" 1 (Vsim.Engine.pending e);
  check_int "one cancelled" 1 (Vsim.Engine.cancelled e);
  Vsim.Engine.cancel e h;
  check_int "cancel idempotent" 1 (Vsim.Engine.cancelled e);
  Vsim.Engine.run e;
  check_int "drained" 0 (Vsim.Engine.pending e);
  check_int "cancel count kept after the run" 1 (Vsim.Engine.cancelled e);
  Vsim.Engine.cancel e live;
  check_int "cancelling a run event counts nothing" 1 (Vsim.Engine.cancelled e);
  check_int "only the live event ran" 1 (Vsim.Engine.executed e)

let test_executor_retry_masks_fault () =
  (* first boot attempt fails; one supervised retry completes it, so the
     switch reports retries but no terminal failure *)
  let engine, cluster, _ =
    mk_cluster ~programs:[ [ Program.Compute 1000. ] ] ~memories:[ 512 ] ()
  in
  let plan = Plan.make [ [ Action.Run { vm = 0; dst = 0 } ] ] in
  let injector =
    Injector.create [ Injector.Fail_nth { kind = Injector.Run; nth = 1 } ]
  in
  let policy = Supervisor.make_policy ~max_retries:1 () in
  let record = ref None in
  Vsim.Executor.execute ~injector ~policy cluster plan ~on_done:(fun r ->
      record := Some r);
  Vsim.Engine.run ~until:100. engine;
  (match !record with
  | None -> Alcotest.fail "executor did not finish"
  | Some r ->
    check_int "one retry" 1 r.Vsim.Executor.retries;
    check_int "no terminal failure" 0 r.Vsim.Executor.failed;
    check_int "boot landed" 1 r.Vsim.Executor.runs;
    check_bool "not aborted" false r.Vsim.Executor.aborted);
  check_bool "running" true
    (Configuration.state (Vsim.Cluster.config cluster) 0
    = Configuration.Running 0)

let test_executor_timeout_is_terminal () =
  (* a 10x slowdown against a 3x timeout factor: the attempt is cut off
     at the deadline and, with no retries, the action fails in place *)
  let engine, cluster, _ =
    mk_cluster ~programs:[ [ Program.Compute 1000. ] ] ~memories:[ 512 ] ()
  in
  let plan = Plan.make [ [ Action.Run { vm = 0; dst = 0 } ] ] in
  let injector =
    Injector.create
      [ Injector.Slowdown { kind = Some Injector.Run; factor = 10. } ]
  in
  let policy = Supervisor.make_policy ~timeout_factor:3. ~max_retries:0 () in
  let record = ref None in
  Vsim.Executor.execute ~injector ~policy cluster plan ~on_done:(fun r ->
      record := Some r);
  Vsim.Engine.run ~until:200. engine;
  (match !record with
  | None -> Alcotest.fail "executor did not finish"
  | Some r ->
    check_int "terminal failure" 1 r.Vsim.Executor.failed;
    check_int "timed out" 1 r.Vsim.Executor.timeouts;
    Alcotest.(check (list int)) "vm recorded" [ 0 ] r.Vsim.Executor.failed_vms);
  check_bool "state unchanged" true
    (Configuration.state (Vsim.Cluster.config cluster) 0 = Configuration.Waiting)

let verify_repairs repairs =
  List.iter
    (fun rr ->
      let findings =
        Verifier.verify ~vjobs:rr.Vsim.Session.queue
          ~current:rr.Vsim.Session.before ~target:rr.Vsim.Session.target
          ~demand:rr.Vsim.Session.demand rr.Vsim.Session.plan
      in
      Alcotest.(check int)
        (Fmt.str "repair at %.0fs verifier-clean" rr.Vsim.Session.at)
        0 (List.length findings))
    repairs

let test_runner_repairs_failed_migration () =
  (* the first migration of the run fails terminally mid-plan: the
     switch aborts, an immediate repair plan (salvage or replan) takes
     over, and the workload still converges *)
  let traces =
    List.init 3 (fun i -> Trace.make ~seed:i ~vm_count:4 Nasgrid.Ed Nasgrid.W)
  in
  let injector =
    Injector.create [ Injector.Fail_nth { kind = Injector.Migrate; nth = 1 } ]
  in
  let r =
    Vsim.Runner.run_entropy ~cp_timeout:0.2 ~injector
      ~policy:
        (Supervisor.make_policy ~timeout_factor:infinity ~max_retries:0 ())
      ~nodes:(testbed_nodes 4) ~traces ()
  in
  check_int "all complete despite the failure" 3
    (List.length r.Vsim.Runner.completions);
  let total_failed =
    List.fold_left
      (fun acc s -> acc + s.Vsim.Executor.failed)
      0 r.Vsim.Runner.switches
  in
  check_bool "a terminal failure happened" true (total_failed >= 1);
  check_bool "a repair plan was executed" true (r.Vsim.Runner.repairs <> []);
  verify_repairs r.Vsim.Runner.repairs;
  check_bool "finite" true (r.Vsim.Runner.makespan < 10_000.)

let test_runner_node_crash_resubmits () =
  (* node 0 dies mid-run: its vjobs are reset and resubmitted, the
     replans avoid the dead node, and everything still completes *)
  let traces =
    List.init 2 (fun i -> Trace.make ~seed:i ~vm_count:4 Nasgrid.Ed Nasgrid.W)
  in
  let injector =
    Injector.create [ Injector.Crash_node { node = 0; at_s = 40. } ]
  in
  let r =
    Vsim.Runner.run_entropy ~cp_timeout:0.2 ~injector
      ~nodes:(testbed_nodes 4) ~traces ()
  in
  (match r.Vsim.Runner.crashes with
  | [ (node, at, affected) ] ->
    check_int "node 0" 0 node;
    check_bool "at the scripted time" true (at >= 40. && at < 41.);
    check_bool "some vjob was resubmitted" true (affected <> [])
  | _ -> Alcotest.fail "expected exactly one crash");
  check_int "all complete despite the crash" 2
    (List.length r.Vsim.Runner.completions);
  verify_repairs r.Vsim.Runner.repairs;
  (* the dead node hosts nothing at the end *)
  let final = r.Vsim.Runner.final_config in
  Array.iter
    (fun vm ->
      let id = Vm.id vm in
      check_bool "nothing left on the dead node" true
        (match Configuration.state final id with
        | Configuration.Running 0 | Configuration.Sleeping 0
        | Configuration.Sleeping_ram 0 -> false
        | _ -> true))
    (Configuration.vms final);
  check_bool "finite" true (r.Vsim.Runner.makespan < 10_000.)

let test_runner_crash_after_done_ignored () =
  (* a scripted crash that fires once the loop is done changes nothing:
     it is not enacted, not reported, and the run is the crash-free one *)
  let traces =
    List.init 2 (fun i -> Trace.make ~seed:i ~vm_count:4 Nasgrid.Ed Nasgrid.W)
  in
  let run models =
    Vsim.Runner.run_entropy
      ~decision:(Decision.consolidation ~cp_timeout:60. ~cp_node_limit:5000 ())
      ~injector:(Injector.create models) ~nodes:(testbed_nodes 4) ~traces ()
  in
  let rows (r : Vsim.Runner.result) =
    List.map
      (fun (s : Vsim.Executor.record) ->
        (s.Vsim.Executor.cost, Vsim.Executor.duration s, s.Vsim.Executor.pools))
      r.Vsim.Runner.switches
  in
  let plain = run [] in
  let late =
    run
      [
        Injector.Crash_node
          { node = 0; at_s = plain.Vsim.Runner.makespan +. 3600. };
      ]
  in
  check_int "no crash reported" 0 (List.length late.Vsim.Runner.crashes);
  check_bool "same switches" true (rows plain = rows late);
  check_float 0. "same makespan" plain.Vsim.Runner.makespan
    late.Vsim.Runner.makespan;
  check_bool "same final configuration" true
    (Configuration.equal plain.Vsim.Runner.final_config
       late.Vsim.Runner.final_config)

(* -- journal + crash resume ----------------------------------------------------- *)

module Journal = Entropy_journal.Journal
module Jrecord = Entropy_journal.Record
module Recovery = Entropy_journal.Recovery

(* a small faulty instance: 2 vjobs of 4 VMs on 4 nodes, seeded
   fail-rate injection to make the journal interesting *)
let journal_instance () =
  let traces =
    List.init 2 (fun i -> Trace.make ~seed:i ~vm_count:4 Nasgrid.Ed Nasgrid.W)
  in
  Vsim.Runner.setup ~nodes:(testbed_nodes 4) ~traces ()

let journal_injector () =
  Injector.create ~seed:42
    [ Injector.Fail_rate { kind = None; rate = 0.15 } ]

let test_journal_emission_well_formed () =
  let config, vjobs, programs = journal_instance () in
  let journal = Journal.mem () in
  let r =
    Vsim.Runner.run_custom ~cp_timeout:0.2 ~injector:(journal_injector ())
      ~journal ~config ~vjobs ~programs ()
  in
  check_int "completes" 2 (List.length r.Vsim.Runner.completions);
  check_bool "not killed" false r.Vsim.Runner.killed;
  let records = Journal.records journal in
  check_bool "records were journaled" true (records <> []);
  (match records with
  | Jrecord.Switch_begin { seed; _ } :: _ ->
    Alcotest.(check (option int)) "begin carries the seed" (Some 42) seed
  | _ -> Alcotest.fail "journal must open with Switch_begin");
  (* write-ahead discipline: every switch's records sit between its
     begin and end; every terminal action record follows a start of the
     same action in the same switch *)
  let begun = Hashtbl.create 8 and ended = Hashtbl.create 8 in
  let started = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let sw = Jrecord.switch r in
      (match r with
      | Jrecord.Switch_begin _ -> Hashtbl.replace begun sw ()
      | _ ->
        check_bool "record after its begin" true (Hashtbl.mem begun sw);
        check_bool "record before its end" false (Hashtbl.mem ended sw));
      match r with
      | Jrecord.Action_started { action; _ } ->
        Hashtbl.replace started (sw, action) ()
      | Jrecord.Action_done { action; _ }
      | Jrecord.Action_failed { action; _ } ->
        check_bool "terminal follows its start" true
          (Hashtbl.mem started (sw, action))
      | Jrecord.Switch_end _ -> Hashtbl.replace ended sw ()
      | Jrecord.Switch_begin _ | Jrecord.Pool_committed _
      | Jrecord.Submission _ | Jrecord.Ladder _ -> ())
    records;
  (* a completed run closes every switch it opened *)
  Hashtbl.iter
    (fun sw () -> check_bool "switch closed" true (Hashtbl.mem ended sw))
    begun;
  check_int "ids are dense from 0" (Hashtbl.length begun)
    (Journal.next_switch journal)

let test_runner_kill_and_resume () =
  let config, vjobs, programs = journal_instance () in
  let journal = Journal.mem () in
  let killed =
    Vsim.Runner.run_custom ~cp_timeout:0.2 ~injector:(journal_injector ())
      ~journal ~kill_at:30. ~config ~vjobs ~programs ()
  in
  check_bool "cut short" true killed.Vsim.Runner.killed;
  check_bool "work left undone" true
    (List.length killed.Vsim.Runner.completions < 2);
  let records = Journal.records journal in
  match Recovery.replay records with
  | None -> Alcotest.fail "a 30 s kill must land after a switch began"
  | Some _ ->
    (match
       Vsim.Runner.resume ~cp_timeout:0.2 ~journal ~records ~vjobs
         ~programs ()
     with
    | None -> Alcotest.fail "resume must find the switch"
    | Some (info, r) ->
      check_bool "journal agrees with the observation: no repair" false
        info.Recovery.repaired;
      check_int "both vjobs complete after resume" 2
        (List.length r.Vsim.Runner.completions);
      check_bool "resumed run not killed" false r.Vsim.Runner.killed;
      (* the resumed switch continued the id sequence in the journal *)
      check_bool "journal extended" true
        (List.length (Journal.records journal) > List.length records));
    (* the journal now closes with completed switches only *)
    (match Recovery.replay (Journal.records journal) with
    | Some st' ->
      check_bool "last switch closed" true (st'.Recovery.end_at <> None)
    | None -> Alcotest.fail "journal lost its switches")

(* The acceptance property: crash at EVERY record boundary of a seeded
   faulty run, resume from the journal prefix, and the cluster still
   converges — every vjob completes, the final configuration is viable,
   and the resume plan verifies against the original switch. *)
let test_crash_at_every_record_boundary () =
  let config, vjobs, programs = journal_instance () in
  let journal = Journal.mem () in
  let full =
    Vsim.Runner.run_custom ~cp_timeout:0.2 ~injector:(journal_injector ())
      ~journal ~config ~vjobs ~programs ()
  in
  check_int "reference run completes" 2
    (List.length full.Vsim.Runner.completions);
  let records = Journal.records journal in
  let n = List.length records in
  check_bool "enough boundaries to matter" true (n >= 10);
  let vm_count = Configuration.vm_count config in
  let demand = Demand.uniform ~vm_count Program.compute_demand in
  for cut = 0 to n do
    let prefix = List.filteri (fun i _ -> i < cut) records in
    let label what = Printf.sprintf "cut %d/%d: %s" cut n what in
    match Recovery.replay prefix with
    | None ->
      (* crash before any switch began: a fresh run must still work *)
      let r =
        Vsim.Runner.run_custom ~cp_timeout:0.2 ~config ~vjobs ~programs ()
      in
      check_int (label "fresh run completes") 2
        (List.length r.Vsim.Runner.completions)
    | Some st ->
      let observed = Recovery.projected_config st in
      (match
         Vsim.Runner.resume ~cp_timeout:0.2 ~records:prefix ~vjobs ~programs
           ()
       with
      | None -> Alcotest.fail (label "resume lost the switch")
      | Some (info, r) ->
        (* completion in the resumed world: every vjob reaches Terminated
           (crashes inside the final stop-switch leave no program events
           to re-run, so completion counts would under-report) *)
        check_bool (label "all vjobs complete") true
          (List.for_all
             (fun vj ->
               List.for_all
                 (fun vm ->
                   Configuration.state r.Vsim.Runner.final_config vm
                   = Configuration.Terminated)
                 (Vjob.vms vj))
             vjobs);
        check_bool (label "resumed run not killed") false r.Vsim.Runner.killed;
        check_bool (label "final configuration viable") true
          (Configuration.is_viable r.Vsim.Runner.final_config demand);
        (* idempotent resume: journal + observation agree, so the resume
           is a straight continuation with a verifier-clean plan *)
        if not info.Recovery.repaired then
          match info.Recovery.reconciliation.Recovery.plan with
          | None -> ()
          | Some plan ->
            let findings =
              Verifier.verify_resume ~vjobs
                ~source:st.Recovery.source ~original:st.Recovery.plan
                ~observed
                ~target:info.Recovery.reconciliation.Recovery.target
                ~frozen:info.Recovery.reconciliation.Recovery.frozen_vms
                ~demand:st.Recovery.demand plan
            in
            Alcotest.(check int)
              (label "resume plan verifier-clean")
              0 (List.length findings))
  done

(* Same property against the binary file backend with group commit: the
   durable sequence on disk must match the deterministic mem sequence
   record for record (group commit batches but never reorders — a
   terminal record is flushed inside the append that precedes its
   completion callback, so it can never trail state the callback already
   acted on), and a crash at every record boundary — or mid-frame — of
   the file still resumes to convergence. *)
let test_crash_at_every_boundary_file_backend () =
  let config, vjobs, programs = journal_instance () in
  let mem_j = Journal.mem () in
  ignore
    (Vsim.Runner.run_custom ~cp_timeout:0.2 ~injector:(journal_injector ())
       ~journal:mem_j ~config ~vjobs ~programs ());
  let mem_records = Journal.records mem_j in
  let path = Filename.temp_file "entropy_sim_journal" ".wal" in
  Sys.remove path;
  let file_j = Journal.open_file path in
  let full =
    Vsim.Runner.run_custom ~cp_timeout:0.2 ~injector:(journal_injector ())
      ~journal:file_j ~config ~vjobs ~programs ()
  in
  Journal.close file_j;
  check_int "file-journaled run completes" 2
    (List.length full.Vsim.Runner.completions);
  let records, dropped = Journal.load path in
  check_int "clean file" 0 dropped;
  check_int "same record count as the mem run" (List.length mem_records)
    (List.length records);
  check_bool "group commit preserved the append order" true
    (List.for_all2 Jrecord.equal mem_records records);
  (* byte offset of every record boundary in the file *)
  let n = List.length records in
  let offsets = Array.make (n + 1) 0 in
  let codec = Jrecord.codec () in
  List.iteri
    (fun i r ->
      offsets.(i + 1) <- offsets.(i) + String.length (Jrecord.to_frame codec r))
    records;
  let full_bytes =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  check_int "offsets span the file" (String.length full_bytes) offsets.(n);
  let cut_path = Filename.temp_file "entropy_sim_cut" ".wal" in
  let vm_count = Configuration.vm_count config in
  let demand = Demand.uniform ~vm_count Program.compute_demand in
  for cut = 0 to n do
    let label what = Printf.sprintf "file cut %d/%d: %s" cut n what in
    (* crash exactly at the boundary, and torn mid-way into the next
       frame: both must decode to the same [cut]-record prefix *)
    List.iter
      (fun extra ->
        let len = min (offsets.(cut) + extra) (String.length full_bytes) in
        let oc = open_out_bin cut_path in
        output_string oc (String.sub full_bytes 0 len);
        close_out oc;
        let prefix, cut_dropped = Journal.load cut_path in
        check_int
          (label (Printf.sprintf "+%d bytes decodes the prefix" extra))
          (min cut n)
          (List.length prefix);
        if extra = 0 then check_int (label "boundary cut is clean") 0 cut_dropped)
      (if cut = n then [ 0 ] else [ 0; 5 ]);
    let prefix, _ = Journal.load cut_path in
    let prefix = List.filteri (fun i _ -> i < cut) prefix in
    match Recovery.replay prefix with
    | None -> () (* pre-switch crash: fresh-run case, covered above *)
    | Some _ -> (
      match
        Vsim.Runner.resume ~cp_timeout:0.2 ~records:prefix ~vjobs ~programs ()
      with
      | None -> Alcotest.fail (label "resume lost the switch")
      | Some (_, r) ->
        check_bool (label "all vjobs complete") true
          (List.for_all
             (fun vj ->
               List.for_all
                 (fun vm ->
                   Configuration.state r.Vsim.Runner.final_config vm
                   = Configuration.Terminated)
                 (Vjob.vms vj))
             vjobs);
        check_bool (label "resumed run not killed") false r.Vsim.Runner.killed;
        check_bool (label "final configuration viable") true
          (Configuration.is_viable r.Vsim.Runner.final_config demand))
  done;
  Sys.remove path;
  Sys.remove cut_path

(* -- cluster aggregates ------------------------------------------------------ *)

(* A burst-scale episode (24 nodes of 4 cores, 500 vjobs of 1-2 VMs
   arriving 2 s apart, FFD decisions every 30 s through a session that
   park vjobs in their hosts' RAM where it fits, 5% action failures and
   a node crash). After every recompute, the
   cluster's per-node aggregates answer as from-scratch scans do, and
   no vjob whose VMs all run is still unlaunched: the invariant that
   lets an action check launch for its VM's owner only. A VM counts as
   launched once it has been seen computing (every program starts with
   a Compute phase, and a launch is followed by a recompute).

   Every VM's rate also equals the formula over per-node scans (its
   share of the node's capacity among the running VMs' summed demand,
   slowed by the node's contention), although a recompute re-rates only
   the VMs it touched; the readings equal a fresh per-VM scan; the
   readings vector of the previous recompute still holds its contents;
   and every chunk in which no reading changed is shared with it. A
   launched VM whose demand is idle is in its Idle phase (rate 1) after
   its first compute run of a three-phase program, and finished (rate
   0) otherwise. *)
let test_cluster_aggregates_match_scans () =
  let rng = Random.State.make [| 0xa66 |] in
  let node_count = 24 in
  let nodes =
    Array.init node_count (fun i ->
        Node.make ~id:i ~name:(Printf.sprintf "N%d" i) ~cpu_capacity:400
          ~memory_mb:4096)
  in
  let sizes = List.init 500 (fun _ -> 1 + Random.State.int rng 2) in
  let vm_count = List.fold_left ( + ) 0 sizes in
  let vms =
    Array.init vm_count (fun id ->
        Vm.make ~id ~name:(Printf.sprintf "vm%d" id)
          ~memory_mb:(512 + (256 * Random.State.int rng 3)))
  in
  let programs =
    Array.init vm_count (fun _ ->
        let work = 240. +. float_of_int (Random.State.int rng 480) in
        if Random.State.int rng 4 = 0 then
          [
            Program.Compute (work /. 2.);
            Program.Idle (60. +. float_of_int (Random.State.int rng 120));
            Program.Compute (work /. 2.);
          ]
        else [ Program.Compute work ])
  in
  let next = ref 0 in
  let vjobs =
    List.mapi
      (fun j nv ->
        let ids = List.init nv (fun k -> !next + k) in
        next := !next + nv;
        Vjob.make ~id:j ~name:(Printf.sprintf "sub%04d" j) ~vms:ids
          ~submit_time:(2. *. float_of_int j) ())
      sizes
  in
  let live s =
    let config = Vsim.Session.config s in
    List.filter
      (fun vj ->
        Vjob.submit_time vj <= Vsim.Session.now s
        && not (Configuration.vjob_terminated config vj))
      vjobs
  in
  let recomputes = ref 0 and busy_seen = ref 0 and over_seen = ref 0 in
  let ram_seen = ref 0 in
  (* FFD placement, parking vjobs in their hosts' RAM where it fits *)
  let decision =
    Decision.consolidation_with ~name:"ffd+ram" ~suspend_to_ram:true
      (fun ~current ~demand ~vjobs ~placed:_ ~target_base ->
        let plan =
          Planner.build ~vjobs ~current ~target:target_base ~demand ()
        in
        {
          Optimizer.target = target_base;
          plan;
          cost = Plan.cost current plan;
          improved = false;
          rules_satisfied = true;
          stats = None;
        })
  in
  let pace session =
    let engine = Vsim.Session.engine session in
    let cluster = Vsim.Session.cluster session in
    let computed = Array.make vm_count false in
    (* compute runs seen since the VM last waited, and the demand of the
       previous recompute *)
    let runs = Array.make vm_count 0 in
    let last_demand = Array.make vm_count Program.idle_demand in
    let held = ref (Chunked.make 0 0) and held_copy = ref [||] in
    (* checked quietly: Alcotest would log each of the millions of checks *)
    let expect want got fmt =
      if want = got then Printf.ikfprintf ignore () fmt
      else
        Printf.ksprintf
          (fun what ->
            Alcotest.failf "%s at t=%.3f: expected %b" what
              (Vsim.Engine.now engine) want)
          fmt
    in
    Vsim.Cluster.on_change cluster (fun () ->
        incr recomputes;
        let config = Vsim.Cluster.config cluster in
        let busy_vm v =
          Vsim.Cluster.vm_demand cluster v = Program.compute_demand
        in
        for v = 0 to vm_count - 1 do
          let d = Vsim.Cluster.vm_demand cluster v in
          (match Configuration.state config v with
          | Configuration.Waiting -> runs.(v) <- 0
          | _ ->
            if d = Program.compute_demand && last_demand.(v) <> d then
              runs.(v) <- runs.(v) + 1);
          last_demand.(v) <- d;
          match Configuration.state config v with
          | Configuration.Running _ -> if busy_vm v then computed.(v) <- true
          | Configuration.Waiting -> computed.(v) <- false
          | Configuration.Sleeping_ram _ -> incr ram_seen
          | Configuration.Sleeping _ | Configuration.Terminated -> ()
        done;
        (* [running_on] for every node, in one pass *)
        let running = Array.make node_count [] in
        for v = vm_count - 1 downto 0 do
          match Configuration.state config v with
          | Configuration.Running n -> running.(n) <- v :: running.(n)
          | _ -> ()
        done;
        for node = 0 to node_count - 1 do
          let on_node = running.(node) in
          let scan except =
            List.exists (fun v -> Some v <> except && busy_vm v) on_node
          in
          let busy = Vsim.Cluster.busy cluster node in
          if busy then incr busy_seen;
          expect (scan None) busy "busy N%d" node;
          List.iter
            (fun v ->
              expect (scan (Some v))
                (Vsim.Cluster.busy ~except:v cluster node)
                "busy N%d except VM%d" node v)
            on_node;
          (* a VM elsewhere changes nothing *)
          let other = (node + 1) mod node_count in
          match running.(other) with
          | v :: _ ->
            expect (scan None)
              (Vsim.Cluster.busy ~except:v cluster node)
              "busy N%d except VM%d elsewhere" node v
          | [] -> ()
        done;
        let over =
          Configuration.overloaded_nodes config (Vsim.Cluster.demand cluster)
          <> []
        in
        if over then incr over_seen;
        expect over (Vsim.Cluster.overloaded cluster) "overloaded";
        (* rates, from the per-node scans *)
        let total node =
          List.fold_left
            (fun acc v -> acc + Vsim.Cluster.vm_demand cluster v)
            0 running.(node)
        in
        for v = 0 to vm_count - 1 do
          let want =
            match Configuration.state config v with
            | Configuration.Running node ->
              let d = Vsim.Cluster.vm_demand cluster v in
              if d = Program.compute_demand then
                let cap =
                  float_of_int
                    (Node.cpu_capacity (Configuration.node config node))
                in
                let scale =
                  Float.min 1. (cap /. float_of_int (max (total node) 1))
                in
                float_of_int d *. scale /. 100.
                /. Vsim.Cluster.node_decel cluster node
              else if runs.(v) = 1 && List.length programs.(v) = 3 then 1.
              else 0.
            | _ -> 0.
          in
          let got = Vsim.Cluster.rate cluster v in
          if want <> got then
            Alcotest.failf "rate of VM%d at t=%.3f: expected %g, got %g" v
              (Vsim.Engine.now engine) want got
        done;
        (* readings: match a fresh scan, the vector held from an
           earlier recompute still reads what it read then, and the
           chunks without a changed reading are shared with it *)
        let readings = Vsim.Cluster.cpu_readings cluster in
        let fresh =
          Array.init vm_count (fun v ->
              match Configuration.state config v with
              | Configuration.Terminated -> 0
              | _ -> Vsim.Cluster.vm_demand cluster v)
        in
        expect true (Chunked.to_array readings = fresh)
          "readings match a fresh scan";
        expect true (Chunked.to_array !held = !held_copy)
          "held readings unchanged";
        if Chunked.length !held = vm_count then
          for c = 0 to Chunked.chunk_count readings - 1 do
            let lo = c * Chunked.width in
            let hi = min vm_count (lo + Chunked.width) - 1 in
            let moved = ref false in
            for v = lo to hi do
              if fresh.(v) <> !held_copy.(v) then moved := true
            done;
            if not !moved then
              expect true (Chunked.shares_chunk readings !held c)
                "unmoved chunk %d shared" c
          done;
        held := readings;
        held_copy := fresh;
        List.iter
          (fun vj ->
            let vms = Vjob.vms vj in
            if
              List.for_all
                (fun v ->
                  match Configuration.state config v with
                  | Configuration.Running _ -> true
                  | _ -> false)
                vms
            then
              expect true
                (List.for_all (fun v -> computed.(v)) vms)
                "vjob %d running: launched" (Vjob.id vj))
          vjobs);
    let all_terminated () =
      List.for_all
        (Configuration.vjob_terminated (Vsim.Cluster.config cluster))
        vjobs
    in
    let rec iterate () =
      if all_terminated () then Vsim.Session.finish session
      else
        match live session with
        | [] -> next ()
        | _ ->
          Vsim.Session.round session ~cat:"test" ~name:"test.decide"
            ~args:[] decision ~on_settled:(fun _ -> next ())
    and next () = ignore (Vsim.Engine.schedule_after engine ~delay:30. iterate) in
    {
      Vsim.Session.start =
        (fun ~resumed:_ -> ignore (Vsim.Engine.schedule engine ~at:0.5 iterate));
      on_settled = ignore;
      on_poll = ignore;
      on_crash = (fun _ _ -> ());
      complete = all_terminated;
    }
  in
  let o =
    Vsim.Session.loop
      ~config:(Configuration.make ~nodes ~vms)
      ~vjobs
      ~programs:(fun vm -> programs.(vm))
      ~journal:None
      ~injector:
        (Some
           (Injector.create ~seed:7
              [ Injector.Fail_rate { kind = None; rate = 0.05 } ]))
      ~policy:None ~queue:live ~crashes:[ (3, 600.) ] ~resume:None ~kill_at:None ~max_time:100_000.
      pace
  in
  check_bool "every vjob terminated" true
    (List.for_all
       (Configuration.vjob_terminated o.Vsim.Session.final_config)
       vjobs);
  (* the episode exercises both answers of both aggregates, and parks
     vjobs in RAM *)
  check_bool "RAM suspends" true (!ram_seen > 0);
  (* the episode's RAM images always fit their hosts' memory (the
     decision only parks an image where it fits); one that does not *)
  let _, small, _ =
    mk_cluster ~node_count:1 ~mem:1024
      ~programs:[ [ Program.Compute 10. ]; [ Program.Compute 10. ] ]
      ~memories:[ 512; 768 ] ()
  in
  Vsim.Cluster.set_config small
    (Configuration.with_states (Vsim.Cluster.config small)
       [| Configuration.Running 0; Configuration.Sleeping_ram 0 |]);
  check_bool "RAM image overloads memory" true
    (Vsim.Cluster.overloaded small);
  check_bool "many recomputes" true (!recomputes > 1000);
  check_bool "busy nodes seen" true (!busy_seen > 0);
  check_bool "overloads seen" true (!over_seen > 0)

(* -- run -------------------------------------------------------------------------- *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

(* -- switch session ------------------------------------------------------------ *)

(* a one-VM cluster whose session fails the attempts [fails] selects:
   the loop runs [act] on the session at its start, then 1000 s of
   simulated time *)
let session_fixture fails act =
  let config =
    Configuration.make
      ~nodes:
        (Array.init 2 (fun i ->
             Node.make ~id:i ~name:(Printf.sprintf "N%d" i) ~cpu_capacity:200
               ~memory_mb:3584))
      ~vms:[| Vm.make ~id:0 ~name:"vm0" ~memory_mb:512 |]
  in
  let vjobs = [ Vjob.make ~id:0 ~name:"j0" ~vms:[ 0 ] () ] in
  let journal = Journal.mem () in
  let o =
    Vsim.Session.loop ~config ~vjobs
      ~programs:(fun _ -> [ Program.Compute 1000. ])
      ~journal:(Some journal)
      ~injector:(Some (Injector.of_predicate fails))
      ~policy:
        (Some
           (Supervisor.make_policy ~timeout_factor:infinity ~max_retries:0 ()))
      ~queue:(fun _ -> vjobs)
      ~crashes:[] ~resume:None ~kill_at:None ~max_time:1000.
      (fun session ->
        {
          Vsim.Session.start = (fun ~resumed:_ -> act session);
          on_settled = ignore;
          on_poll = ignore;
          on_crash = (fun _ _ -> ());
          complete = (fun () -> true);
        })
  in
  ( o.Vsim.Session.final_config,
    journal,
    List.length o.Vsim.Session.switches,
    o.Vsim.Session.repairs )

(* one round of a decision that always answers [plan] towards vm0 in
   [state] *)
let decide_vm0 settled state plan session =
  let decide (obs : Decision.observation) =
    {
      Optimizer.target = Configuration.set_state obs.Decision.config 0 state;
      plan;
      cost = 0;
      improved = false;
      rules_satisfied = true;
      stats = None;
    }
  in
  Vsim.Session.round session ~cat:"test" ~name:"test.decide" ~args:[]
    { Decision.name = "vm0"; decide }
    ~on_settled:(fun s -> settled := s :: !settled)

let run_vm0 settled =
  decide_vm0 settled (Configuration.Running 0)
    (Plan.make [ [ Action.Run { vm = 0; dst = 0 } ] ])

let begun_ids journal =
  List.filter_map
    (function Jrecord.Switch_begin { switch; _ } -> Some switch | _ -> None)
    (Journal.records journal)

let test_session_chain_exhausts () =
  (* every attempt fails: the switch and each of its repair plans
     degrade, each journaled under the next dense id, until the chain is
     reported exhausted *)
  let max_repairs = 4 (* the session's repair budget *) in
  let settled = ref [] in
  let final, journal, switches, repairs =
    session_fixture (fun _ -> true) (run_vm0 settled)
  in
  check_bool "settled once, chain exhausted" true
    (!settled = [ Vsim.Session.Exhausted ]);
  check_int "switch plus every repair executed" (max_repairs + 1) switches;
  Alcotest.(check (list int))
    "dense switch ids"
    (List.init (max_repairs + 1) Fun.id)
    (begun_ids journal);
  Alcotest.(check (list int))
    "each repair names the switch it runs under"
    (List.init max_repairs (fun i -> i + 1))
    (List.map (fun r -> r.Vsim.Session.switch) repairs);
  check_int "next switch" (max_repairs + 1) (Journal.next_switch journal);
  check_bool "vm0 still waiting" true
    (Configuration.state final 0 = Configuration.Waiting)

let test_session_repairs_then_settles_clean () =
  (* the first attempt fails; the immediate repair plan succeeds *)
  let first = ref true in
  let settled = ref [] in
  let final, journal, switches, repairs =
    session_fixture
      (fun _ ->
        let f = !first in
        first := false;
        f)
      (run_vm0 settled)
  in
  check_bool "settled clean" true (!settled = [ Vsim.Session.Clean ]);
  check_int "degraded switch + one repair" 2 switches;
  check_int "one repair" 1 (List.length repairs);
  Alcotest.(check (list int)) "two switches journaled" [ 0; 1 ]
    (begun_ids journal);
  check_bool "vm0 running" true
    (Configuration.state final 0 = Configuration.Running 0)

let test_session_commits_bookkeeping () =
  (* an empty plan whose target differs by bookkeeping alone (a waiting
     VM cancelled) is committed directly, without a switch *)
  let settled = ref [] in
  let final, journal, switches, _ =
    session_fixture
      (fun _ -> false)
      (fun session ->
        decide_vm0 settled Configuration.Terminated Plan.empty session;
        check_bool "settled clean at once" true
          (!settled = [ Vsim.Session.Clean ]))
  in
  check_bool "target committed" true
    (Configuration.state final 0 = Configuration.Terminated);
  check_int "no switch executed" 0 switches;
  check_int "nothing journaled" 0 (Journal.length journal)

let test_runner_ngb_base45_terminates () =
  (* trace base 45 leaves finished vjobs whose target differs from the
     current configuration by bookkeeping alone: without the session's
     direct commit the runner polled until max_time *)
  let traces =
    List.init 8 (fun i ->
        Trace.make ~seed:(360 + i) ~vm_count:9
          (List.nth Nasgrid.families (i mod 4))
          Nasgrid.W)
  in
  let decision =
    Decision.consolidation ~cp_timeout:60. ~cp_node_limit:500 ()
  in
  let r =
    Vsim.Runner.run_entropy ~decision ~max_time:20000.
      ~nodes:(testbed_nodes 11) ~traces ()
  in
  let final = r.Vsim.Runner.final_config in
  check_bool "every VM terminated" true
    (List.for_all
       (fun vm -> Configuration.state final vm = Configuration.Terminated)
       (List.init (Configuration.vm_count final) Fun.id));
  check_bool
    (Printf.sprintf "fewer than 100 iterations (%d)" r.Vsim.Runner.iterations)
    true
    (r.Vsim.Runner.iterations < 100)

(* -- NGB decisions against the verifier ---------------------------------- *)

(* The ngb-cp benchmark's decision on trace base [base]: the section 5.2
   run (8 NGB vjobs of 9 VMs on the 11-node testbed) decided by the
   consolidation module with CP capped at 5000 nodes. Every decision's
   plan is replayed by the verifier with the vjobs still live. Returns
   the findings of each decision (numbered from 0) and the number of
   vjobs completed. *)
let ngb_verified base =
  let traces =
    List.init 8 (fun i ->
        Trace.make ~seed:(base + i) ~vm_count:9
          (List.nth Nasgrid.families (i mod 4))
          Nasgrid.W)
  in
  let inner = Decision.consolidation ~cp_timeout:60. ~cp_node_limit:5000 () in
  let findings = ref [] in
  let decide (obs : Decision.observation) =
    let r = inner.Decision.decide obs in
    let vjobs =
      List.filter
        (fun v -> not (List.mem (Vjob.id v) obs.Decision.finished))
        obs.Decision.queue
    in
    let found =
      Verifier.verify ~vjobs ~current:obs.Decision.config
        ~target:r.Optimizer.target ~demand:obs.Decision.demand
        r.Optimizer.plan
    in
    findings := (List.length !findings, found) :: !findings;
    r
  in
  let r =
    Vsim.Runner.run_entropy
      ~decision:{ inner with Decision.decide }
      ~nodes:(testbed_nodes 11) ~traces ()
  in
  (List.rev !findings, List.length r.Vsim.Runner.completions)

(* A finished vjob's sleeping VMs are left for a later switch to
   terminate (ROADMAP item 1, defect 2): the only findings the nightly
   sweep reports without failing. Any other wrong final state fails. *)
let bookkeeping = function
  | Verifier.Wrong_final_state
      {
        expected = Configuration.Terminated;
        got = Configuration.(Sleeping _ | Sleeping_ram _);
        _;
      } ->
    true
  | _ -> false

(* Bases 176 and 2080 need cycle breaks in vjobs that must stay
   grouped; a grouping pass run after planning once left them as
   off-graph actions (a migration on 176, a suspend on 2080). *)
let test_ngb_decisions_verifier_clean () =
  List.iter
    (fun base ->
      let decisions, served = ngb_verified base in
      List.iter
        (fun (i, found) ->
          Alcotest.(check (list string))
            (Printf.sprintf "base %d, decision %d" base i)
            []
            (List.map (Fmt.str "%a" Verifier.pp_finding) found))
        decisions;
      check_int (Printf.sprintf "base %d: vjobs completed" base) 8 served)
    [ 176; 2080 ]

(* [test_sim.exe ngb-sweep BASE...]: every decision of each base through
   the verifier. Prints each finding; exits 1 on any finding other than
   the bookkeeping above, or on a base that completes fewer than 8
   vjobs. *)
let ngb_sweep bases =
  let failed = ref false in
  List.iter
    (fun base ->
      let decisions, served = ngb_verified base in
      let count = ref 0 and gated = ref 0 in
      List.iter
        (fun (i, found) ->
          List.iter
            (fun f ->
              incr count;
              if not (bookkeeping f) then incr gated;
              Fmt.pr "base %d, decision %d: %a@." base i Verifier.pp_finding f)
            found)
        decisions;
      Printf.printf "base %d: %d decisions, %d findings (%d gated), %d/8 vjobs\n%!"
        base (List.length decisions) !count !gated served;
      if !gated > 0 || served < 8 then failed := true)
    bases;
  if !failed then exit 1

(* -- CP search canaries ---------------------------------------------------- *)

(* The optimiser's model on a fixed instance: the second decision of the
   paper's section 5.2 run (8 NGB vjobs of 9 VMs on 11 nodes, trace base
   0) under the benchmark's 5000-node budget. The first decision has all
   VMs waiting and is solved in some 200 nodes; the second one is the
   first to spend the whole budget. *)
exception Canary_instance of (unit -> Optimizer.result)

let ngb_canary_instance () =
  let traces =
    List.init 8 (fun i ->
        Trace.make ~seed:i ~vm_count:9
          (List.nth Nasgrid.families (i mod 4))
          Nasgrid.W)
  in
  let calls = ref 0 in
  let decision =
    Decision.consolidation_with ~name:"canary"
      (fun ~current ~demand ~vjobs ~placed ~target_base ->
        let optimize () =
          Optimizer.optimize ~timeout:60. ~node_limit:5000 ~vjobs ~current
            ~demand ~placed ~target_base ~fallback:target_base ()
        in
        incr calls;
        if !calls = 2 then raise (Canary_instance optimize) else optimize ())
  in
  match
    Vsim.Runner.run_entropy ~decision ~nodes:(testbed_nodes 11) ~traces ()
  with
  | _ -> Alcotest.fail "the run ended before its second decision"
  | exception Canary_instance optimize -> optimize

let search_stats (r : Optimizer.result) =
  match r.Optimizer.stats with
  | Some s -> s
  | None -> Alcotest.fail "the optimiser ran no search"

(* Pins the search trajectory: a kernel change that prunes differently
   (or not at all) moves the node and fail counts or the plan cost. *)
let test_optimizer_trajectory_canary () =
  let r = (ngb_canary_instance ()) () in
  let s = search_stats r in
  check_int "nodes" 5000 s.Fdcp.Search.nodes;
  check_int "fails" 14773 s.Fdcp.Search.fails;
  check_int "cost" 79360 r.Optimizer.cost

(* Minor-heap words per search step (node or fail) over the whole
   optimisation, model building and plan derivation included; the count
   is exact, so the bound needs no room for noise. The kernel formats no
   failure message and its propagators allocate no closure per run: the
   figure is 107 words, and it was 588 when every failure formatted its
   message and Pack and Movecost built their helpers on every run.
   Bringing back the formatting (392 words), Pack's per-run closures
   (236) or Movecost's (155) crosses the bound. *)
let words_per_step_bound = 140.

let test_optimizer_allocation_canary () =
  let optimize = ngb_canary_instance () in
  (* a first run keeps one-time set-up out of the count *)
  ignore (optimize ());
  let w0 = Gc.minor_words () in
  let r = optimize () in
  let words = Gc.minor_words () -. w0 in
  let s = search_stats r in
  let steps = s.Fdcp.Search.nodes + s.Fdcp.Search.fails in
  let per_step = words /. float_of_int steps in
  check_bool
    (Printf.sprintf "%.1f minor words per search step, bound %.0f" per_step
       words_per_step_bound)
    true
    (per_step < words_per_step_bound)

let () =
  match Array.to_list Sys.argv with
  | _ :: "ngb-sweep" :: bases -> ngb_sweep (List.map int_of_string bases)
  | _ ->
  Alcotest.run "vsim"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "tied count" `Quick test_heap_tied_count;
          Alcotest.test_case "pop tied" `Quick test_heap_pop_tied;
        ]
        @ qsuite
            [ heap_pops_sorted; heap_pop_tied_is_permutation; heap_matches_model ] );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "chained" `Quick test_engine_schedule_in_callback;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "chooser" `Quick test_engine_chooser;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
        ] );
      ( "perf_model",
        [
          Alcotest.test_case "boot/stop flat" `Quick
            test_perf_boot_stop_memory_independent;
          Alcotest.test_case "migrate scales" `Quick
            test_perf_migrate_scales_with_memory;
          Alcotest.test_case "suspend remote 2x" `Quick
            test_perf_suspend_remote_doubles;
          Alcotest.test_case "resume remote 2x" `Quick
            test_perf_resume_remote_vs_local;
          Alcotest.test_case "deceleration" `Quick test_perf_deceleration;
          Alcotest.test_case "figure 3 rows" `Quick test_perf_figure3_rows;
          Alcotest.test_case "contended action" `Quick
            test_perf_action_duration_contention;
          Alcotest.test_case "quiet durations equal schedule" `Quick
            test_perf_quiet_equals_schedule;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "full speed" `Quick test_cluster_full_speed_compute;
          Alcotest.test_case "contention" `Quick
            test_cluster_contention_halves_speed;
          Alcotest.test_case "idle wall clock" `Quick
            test_cluster_idle_phase_wall_clock;
          Alcotest.test_case "launch needs all VMs" `Quick
            test_cluster_launch_requires_all_vms;
          Alcotest.test_case "suspension freezes" `Quick
            test_cluster_suspension_freezes_progress;
          Alcotest.test_case "demand follows phases" `Quick
            test_cluster_demand_follows_phases;
          Alcotest.test_case "operation decelerates" `Quick
            test_cluster_decel_during_op;
          Alcotest.test_case "unchanged rate keeps its event" `Quick
            test_cluster_unchanged_rate_keeps_event;
          Alcotest.test_case "untouched VM matches eager resync" `Quick
            test_cluster_untouched_vm_matches_eager_resync;
          Alcotest.test_case "launch and crash reschedule" `Quick
            test_cluster_launch_and_crash_reschedule;
          Alcotest.test_case "aggregates match scans" `Quick
            test_cluster_aggregates_match_scans;
        ] );
      ( "executor",
        [
          Alcotest.test_case "applies plan" `Quick test_executor_applies_plan;
          Alcotest.test_case "pools sequential" `Quick
            test_executor_pools_sequential;
          Alcotest.test_case "pipelined suspends" `Quick
            test_executor_pipelines_suspends;
        ] );
      ( "continuous-estimate",
        [
          Alcotest.test_case "beats pool execution" `Quick
            test_continuous_estimate_beats_pool_execution;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "overload visible" `Quick
            test_metrics_overload_visible;
          Alcotest.test_case "stop idempotent" `Quick
            test_metrics_stop_idempotent;
          Alcotest.test_case "to_json" `Quick test_metrics_to_json;
        ] );
      ( "runner",
        [
          Alcotest.test_case "single vjob" `Quick test_runner_single_vjob;
          Alcotest.test_case "overload resolved" `Quick
            test_runner_overload_suspends_and_completes;
          Alcotest.test_case "beats static FCFS" `Quick
            test_runner_beats_static_fcfs;
          Alcotest.test_case "cost/duration correlate" `Quick
            test_runner_switch_cost_duration_correlate;
          Alcotest.test_case "recovers from failures" `Quick
            test_runner_recovers_from_failures;
          Alcotest.test_case "failure keeps state" `Quick
            test_executor_failure_keeps_state;
          Alcotest.test_case "optimizer trajectory canary" `Quick
            test_optimizer_trajectory_canary;
          Alcotest.test_case "optimizer allocation canary" `Quick
            test_optimizer_allocation_canary;
          Alcotest.test_case "ngb decisions verifier-clean" `Quick
            test_ngb_decisions_verifier_clean;
        ] );
      ( "fault",
        [
          Alcotest.test_case "cancelled not pending" `Quick
            test_engine_cancelled_not_pending;
          Alcotest.test_case "retry masks fault" `Quick
            test_executor_retry_masks_fault;
          Alcotest.test_case "timeout is terminal" `Quick
            test_executor_timeout_is_terminal;
          Alcotest.test_case "repairs failed migration" `Quick
            test_runner_repairs_failed_migration;
          Alcotest.test_case "node crash resubmits" `Quick
            test_runner_node_crash_resubmits;
          Alcotest.test_case "crash after done ignored" `Quick
            test_runner_crash_after_done_ignored;
        ] );
      ( "journal",
        [
          Alcotest.test_case "emission well formed" `Quick
            test_journal_emission_well_formed;
          Alcotest.test_case "kill and resume" `Quick
            test_runner_kill_and_resume;
          Alcotest.test_case "crash at every boundary" `Quick
            test_crash_at_every_record_boundary;
          Alcotest.test_case "crash at every boundary (file backend)" `Quick
            test_crash_at_every_boundary_file_backend;
        ] );
      ( "session",
        [
          Alcotest.test_case "chain exhausts" `Quick
            test_session_chain_exhausts;
          Alcotest.test_case "repairs then settles clean" `Quick
            test_session_repairs_then_settles_clean;
          Alcotest.test_case "commits bookkeeping" `Quick
            test_session_commits_bookkeeping;
          Alcotest.test_case "runner ngb base 45 terminates" `Quick
            test_runner_ngb_base45_terminates;
        ] );
      ( "online-rms",
        [
          Alcotest.test_case "frees early" `Quick test_rms_simulate_frees_early;
          Alcotest.test_case "backfill vs strict" `Quick
            test_rms_simulate_backfill_vs_strict;
          Alcotest.test_case "staggered arrivals" `Quick
            test_rms_simulate_staggered_arrivals;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "collector smoothing" `Quick
            test_collector_smoothing;
          Alcotest.test_case "history window" `Quick
            test_history_window_and_eviction;
          Alcotest.test_case "history fallback" `Quick
            test_history_average_fallback;
          Alcotest.test_case "collector bootstrap" `Quick
            test_collector_poll_count_and_bootstrap;
          Alcotest.test_case "drops bad samples" `Quick
            test_collector_drops_bad_samples;
          Alcotest.test_case "keeps equal timestamps" `Quick
            test_collector_keeps_equal_timestamps;
          Alcotest.test_case "scans an unchanged reading once" `Quick
            test_collector_scans_once;
          Alcotest.test_case "drop counter metric" `Quick
            test_collector_drop_counter_metric;
          Alcotest.test_case "engine max events" `Quick
            test_engine_max_events;
        ]
        @ qsuite
            [ history_matches_list_model; collector_demand_is_history_average ]
      );
    ]

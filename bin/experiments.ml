(* Experiment drivers: one subcommand per table/figure of the paper.

     experiments fig3      — Figure 3: duration of each VM context switch
     experiments table1    — Table 1: the action cost model
     experiments fig10     — Figure 10: FFD vs Entropy reconfiguration cost
     experiments fig11     — Figure 11: cost and duration of the switches
     experiments fig12     — Figure 12: FCFS static allocation diagram
     experiments fig13     — Figure 13: resource utilization over time
     experiments headline  — the 40%-reduction comparison
     experiments all       — everything above *)

open Entropy_core
module Nasgrid = Vworkload.Nasgrid
module Generator = Vworkload.Generator

(* -- Figure 3 ---------------------------------------------------------------- *)

let fig3 () =
  Exp_common.header
    "Figure 3: duration of each transition vs VM memory size (seconds)";
  let rows = Vsim.Perf_model.figure3_rows () in
  let ops = List.map fst (snd (List.hd rows)) in
  Printf.printf "%-22s" "operation";
  List.iter (fun (m, _) -> Printf.printf "%10s" (Printf.sprintf "%dMB" m)) rows;
  print_newline ();
  List.iter
    (fun op ->
      Printf.printf "%-22s" op;
      List.iter
        (fun (_, cells) -> Printf.printf "%10.1f" (List.assoc op cells))
        rows;
      print_newline ())
    ops;
  print_newline ();
  Printf.printf
    "with a co-resident busy VM, local operations slow down by x%.1f and\n\
     remote ones by x%.1f (deceleration measured in section 2.3)\n"
    Vsim.Perf_model.decel_local Vsim.Perf_model.decel_remote

(* -- Table 1 ----------------------------------------------------------------- *)

let table1 () =
  Exp_common.header "Table 1: cost of an action on a VM (cost unit = MB)";
  let nodes = Exp_common.testbed_nodes ~count:3 () in
  let mems = [ 512; 1024; 2048 ] in
  let vms =
    Array.of_list
      (List.mapi
         (fun i m -> Vm.make ~id:i ~name:(Printf.sprintf "vm%d" i) ~memory_mb:m)
         mems)
  in
  let config = Configuration.make ~nodes ~vms in
  Printf.printf "%-22s%10s%10s%10s\n" "action" "512MB" "1024MB" "2048MB";
  let row name f =
    Printf.printf "%-22s" name;
    List.iteri (fun i _ -> Printf.printf "%10d" (Cost.action config (f i))) mems;
    print_newline ()
  in
  row "migrate" (fun i -> Action.Migrate { vm = i; src = 0; dst = 1 });
  row "run" (fun i -> Action.Run { vm = i; dst = 0 });
  row "stop" (fun i -> Action.Stop { vm = i; host = 0 });
  row "suspend" (fun i -> Action.Suspend { vm = i; host = 0 });
  row "resume (local)" (fun i -> Action.Resume { vm = i; src = 0; dst = 0 });
  row "resume (remote)" (fun i -> Action.Resume { vm = i; src = 0; dst = 1 })

(* -- Figure 10 ---------------------------------------------------------------- *)

let fig10_sample ~timeout instance =
  let { Generator.config; demand; vjobs } = instance in
  let outcome = Rjsp.solve ~config ~demand ~queue:vjobs () in
  let target =
    Rgraph.normalize_sleeping ~current:config outcome.Rjsp.ffd_config
  in
  match Planner.build ~vjobs ~current:config ~target ~demand () with
  | exception Planner.Stuck _ -> None
  | ffd_plan ->
    let ffd_cost = Plan.cost config ffd_plan in
    let result =
      Optimizer.optimize ~timeout ~vjobs ~current:config ~demand
        ~placed:(List.concat_map Vjob.vms outcome.Rjsp.running)
        ~target_base:outcome.Rjsp.ffd_config
        ~fallback:outcome.Rjsp.ffd_config ()
    in
    Some (ffd_cost, result.Optimizer.cost)

let fig10 samples timeout () =
  Exp_common.header
    (Printf.sprintf
       "Figure 10: reconfiguration cost, 200 nodes (FFD vs Entropy, %d \
        samples per point, CP timeout %.1fs)"
       samples timeout);
  Printf.printf "%8s%16s%16s%12s%10s\n" "VMs" "FFD cost" "Entropy cost"
    "reduction" "samples";
  List.iter
    (fun vm_count ->
      let instances = Generator.figure10_instances ~samples ~vm_count () in
      let results = List.filter_map (fig10_sample ~timeout) instances in
      let n = List.length results in
      if n = 0 then Printf.printf "%8d%16s\n" vm_count "(no sample)"
      else begin
        let mean l =
          List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
        in
        let ffd = mean (List.map (fun (f, _) -> float_of_int f) results) in
        let ent = mean (List.map (fun (_, e) -> float_of_int e) results) in
        let reduction =
          if ffd > 0. then 100. *. (ffd -. ent) /. ffd else 0.
        in
        Printf.printf "%8d%16.0f%16.0f%11.1f%%%10d\n" vm_count ffd ent
          reduction n
      end)
    Generator.figure10_vm_counts

(* -- Figures 11 / 12 / 13 / headline ------------------------------------------- *)

let print_switches (r : Vsim.Runner.result) =
  Printf.printf "%10s%12s%8s%8s%8s%8s%8s%7s\n" "cost" "duration" "migr"
    "susp" "resume" "run" "stop" "pools";
  List.iter
    (fun (s : Vsim.Executor.record) ->
      Printf.printf "%10d%11.0fs%8d%8d%8d%8d%8d%7d\n" s.Vsim.Executor.cost
        (Vsim.Executor.duration s) s.Vsim.Executor.migrations
        s.Vsim.Executor.suspends s.Vsim.Executor.resumes s.Vsim.Executor.runs
        s.Vsim.Executor.stops s.Vsim.Executor.pools)
    (List.sort
       (fun a b -> Int.compare a.Vsim.Executor.cost b.Vsim.Executor.cost)
       r.Vsim.Runner.switches)

let fig11 cls cp_timeout () =
  Exp_common.header
    "Figure 11: cost and duration of the cluster-wide context switches";
  let r = Exp_common.run_entropy ~cls ~cp_timeout () in
  print_switches r;
  Printf.printf
    "\n%d switches; mean duration %.0f s; makespan %.1f min\n\
     (simulated durations include contention; the contention-free\n\
     estimate of Entropy_core.Schedule is what the decision module can\n\
     compute before executing)\n"
    (List.length r.Vsim.Runner.switches)
    (Vsim.Runner.mean_switch_duration r)
    (Exp_common.minutes r.Vsim.Runner.makespan)

let gantt (run : Batch.Static_alloc.run) =
  let makespan = Batch.Static_alloc.makespan run in
  let width = 60 in
  let cell = makespan /. float_of_int width in
  List.iter
    (fun (p : Batch.Job.placement) ->
      let job = p.Batch.Job.job in
      let line =
        String.init width (fun i ->
            let t = float_of_int i *. cell in
            if t >= p.Batch.Job.start && t < p.Batch.Job.start +. job.Batch.Job.actual
            then '#'
            else if t >= p.Batch.Job.start && t < Batch.Job.slot_end p then '.'
            else ' ')
      in
      Printf.printf "%-12s|%s| %2d nodes\n" job.Batch.Job.name line
        job.Batch.Job.nodes_required)
    run.Batch.Static_alloc.schedule.Batch.Rms.placements

let fig12 cls () =
  Exp_common.header
    "Figure 12: allocation diagram with a static FCFS scheduler\n\
     (# running, . reserved-but-idle slot tail)";
  let run = Exp_common.run_static ~cls () in
  gantt run;
  Printf.printf "\n%-12s%8s%12s%12s%12s\n" "job" "nodes" "start(min)"
    "end(min)" "slot(min)";
  List.iter
    (fun (p : Batch.Job.placement) ->
      let job = p.Batch.Job.job in
      Printf.printf "%-12s%8d%12.1f%12.1f%12.1f\n" job.Batch.Job.name
        job.Batch.Job.nodes_required
        (Exp_common.minutes p.Batch.Job.start)
        (Exp_common.minutes (p.Batch.Job.start +. job.Batch.Job.actual))
        (Exp_common.minutes (Batch.Job.slot_end p)))
    run.Batch.Static_alloc.schedule.Batch.Rms.placements;
  Printf.printf "\nFCFS makespan: %.1f min\n"
    (Exp_common.minutes (Batch.Static_alloc.makespan run))

let fig13 cls cp_timeout series_out () =
  Exp_common.header
    "Figure 13: resource utilization of the VMs (Entropy vs FCFS)";
  let entropy = Exp_common.run_entropy ~cls ~cp_timeout () in
  let static = Exp_common.run_static ~cls () in
  let static_series = Batch.Static_alloc.series ~period:60. static in
  let capacity_cpu = 11 * 200 in
  Printf.printf "%10s%16s%14s%16s%14s\n" "time(min)" "Entropy mem(GB)"
    "Entropy cpu%" "FCFS mem(GB)" "FCFS cpu%";
  let entropy_at t =
    let rec closest best = function
      | [] -> best
      | (p : Vsim.Metrics.point) :: rest ->
        if Float.abs (p.Vsim.Metrics.time -. t) < Float.abs (best.Vsim.Metrics.time -. t)
        then closest p rest
        else closest best rest
    in
    match entropy.Vsim.Runner.series with
    | [] -> None
    | p :: rest -> Some (closest p rest)
  in
  let horizon =
    Float.max entropy.Vsim.Runner.makespan (Batch.Static_alloc.makespan static)
  in
  let rec loop t =
    if t <= horizon then begin
      let e_mem, e_cpu =
        match entropy_at t with
        | Some p when t <= entropy.Vsim.Runner.makespan +. 60. ->
          ( float_of_int p.Vsim.Metrics.mem_used_mb /. 1024.,
            p.Vsim.Metrics.cpu_demand_pct )
        | _ -> (0., 0.)
      in
      let f_mem, f_cpu =
        match
          List.find_opt (fun (ts, _) -> Float.abs (ts -. t) < 30.) static_series
        with
        | Some (_, (mem, cpu)) ->
          ( float_of_int mem /. 1024.,
            100. *. float_of_int cpu /. float_of_int capacity_cpu )
        | None -> (0., 0.)
      in
      Printf.printf "%10.0f%16.1f%14.1f%16.1f%14.1f\n" (Exp_common.minutes t)
        e_mem e_cpu f_mem f_cpu;
      loop (t +. 120.)
    end
  in
  loop 0.;
  match series_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc
      (Entropy_obs.Json.to_string
         (Vsim.Metrics.points_to_json entropy.Vsim.Runner.series));
    output_char oc '\n';
    close_out oc;
    Printf.printf "\nEntropy utilization series written to %s\n" path

let headline cls cp_timeout () =
  Exp_common.header
    "Headline: dynamic consolidation + context switch vs static FCFS";
  let entropy = Exp_common.run_entropy ~cls ~cp_timeout () in
  let static = Exp_common.run_static ~cls () in
  let fcfs_min = Exp_common.minutes (Batch.Static_alloc.makespan static) in
  let entropy_min = Exp_common.minutes entropy.Vsim.Runner.makespan in
  let lb =
    Batch.Rms.preemptive_lower_bound ~capacity:11
      (List.map fst static.Batch.Static_alloc.traces)
  in
  Printf.printf "FCFS static allocation : %8.1f min\n" fcfs_min;
  Printf.printf "Entropy                : %8.1f min\n" entropy_min;
  Printf.printf "reduction              : %8.1f %% (paper: 40%%)\n"
    (100. *. (fcfs_min -. entropy_min) /. fcfs_min);
  Printf.printf "ideal preemption bound : %8.1f min\n" (Exp_common.minutes lb);
  Printf.printf "context switches       : %8d\n"
    (List.length entropy.Vsim.Runner.switches);
  Printf.printf "mean switch duration   : %8.0f s (paper: ~70 s)\n"
    (Vsim.Runner.mean_switch_duration entropy);
  let resumes, local =
    List.fold_left
      (fun (r, l) (s : Vsim.Executor.record) ->
        (r + s.Vsim.Executor.resumes, l + s.Vsim.Executor.local_resumes))
      (0, 0) entropy.Vsim.Runner.switches
  in
  Printf.printf "local resumes          : %8d / %d (paper: 21 / 28)\n" local
    resumes

(* -- ablations ------------------------------------------------------------------ *)

let ablation cls cp_timeout () =
  Exp_common.header
    "Ablation: decision-module variants on the section 5.2 workload";
  let nodes = Exp_common.testbed_nodes () in
  let traces = Exp_common.section52_traces ~cls () in
  let variants =
    [
      ("consolidation (paper)", Decision.consolidation ~cp_timeout:cp_timeout ());
      ( "consolidation + suspend-to-RAM",
        Decision.consolidation ~cp_timeout ~suspend_to_ram:true () );
      ("no CP optimisation (FFD only)", Decision.ffd_only ());
      ( "best-fit packing",
        Decision.consolidation ~cp_timeout ~heuristic:Ffd.Best_fit () );
      ( "worst-fit packing",
        Decision.consolidation ~cp_timeout ~heuristic:Ffd.Worst_fit () );
    ]
  in
  Printf.printf "%-34s%12s%10s%12s%10s\n" "variant" "makespan" "switches"
    "mean dur" "suspends";
  List.iter
    (fun (name, decision) ->
      let r = Vsim.Runner.run_entropy ~decision ~nodes ~traces () in
      let suspends =
        List.fold_left
          (fun acc (s : Vsim.Executor.record) -> acc + s.Vsim.Executor.suspends)
          0 r.Vsim.Runner.switches
      in
      Printf.printf "%-34s%9.1fmin%10d%11.0fs%10d\n%!" name
        (Exp_common.minutes r.Vsim.Runner.makespan)
        (List.length r.Vsim.Runner.switches)
        (Vsim.Runner.mean_switch_duration r)
        suspends)
    variants

(* Staggered submissions: jobs arrive over time instead of together —
   queue dynamics beyond the paper's simultaneous-submission experiment.
   The RMS baseline is the *online* event-driven simulation (nodes freed
   at completion), i.e. a baseline strictly stronger than Figure 12's
   rigid slots. *)
let staggered cls cp_timeout spacing () =
  Exp_common.header
    (Printf.sprintf
       "Staggered submissions (one vjob every %.0f s): Entropy vs online RMS"
       spacing);
  let nodes = Exp_common.testbed_nodes () in
  let traces = Exp_common.section52_traces ~cls () in
  let entropy =
    Vsim.Runner.run_entropy ~cp_timeout ~arrival_spacing:spacing ~nodes
      ~traces ()
  in
  let jobs =
    List.mapi
      (fun i t ->
        let j =
          Batch.Static_alloc.job_of_trace ~node_cpu:200 ~node_mem:3584 ~id:i t
        in
        Batch.Job.make ~id:i ~name:j.Batch.Job.name
          ~arrival:(float_of_int i *. spacing)
          ~nodes_required:j.Batch.Job.nodes_required
          ~walltime:j.Batch.Job.walltime ~actual:j.Batch.Job.actual ())
      traces
  in
  let online = Batch.Rms.simulate ~capacity:11 jobs in
  Printf.printf "Entropy makespan     : %.1f min (%d switches)\n"
    (Exp_common.minutes entropy.Vsim.Runner.makespan)
    (List.length entropy.Vsim.Runner.switches);
  Printf.printf "online RMS makespan  : %.1f min\n"
    (Exp_common.minutes online.Batch.Rms.makespan);
  Printf.printf "reduction            : %.1f %%\n"
    (100.
    *. (online.Batch.Rms.makespan -. entropy.Vsim.Runner.makespan)
    /. online.Batch.Rms.makespan)

(* Pool barriers vs continuous (event-driven) execution: estimated switch
   durations on Figure 10-style instances — the refinement Entropy 2 /
   BtrPlace brought to this paper's pool model. *)
let continuous samples timeout () =
  Exp_common.header
    "Continuous vs pool-based switch execution (estimated durations)";
  Printf.printf "%8s%14s%16s%12s\n" "VMs" "pooled (s)" "continuous (s)"
    "reduction";
  List.iter
    (fun vm_count ->
      let instances = Generator.figure10_instances ~samples ~vm_count () in
      let results =
        List.filter_map
          (fun { Generator.config; demand; vjobs } ->
            let outcome = Rjsp.solve ~config ~demand ~queue:vjobs () in
            match
              Optimizer.optimize ~timeout ~vjobs ~current:config ~demand
                ~placed:(List.concat_map Vjob.vms outcome.Rjsp.running)
                ~target_base:outcome.Rjsp.ffd_config
                ~fallback:outcome.Rjsp.ffd_config ()
            with
            | exception Planner.Stuck _ -> None
            | result -> (
              let plan = result.Optimizer.plan in
              let pooled = Schedule.makespan (Schedule.of_plan config plan) in
              match
                Continuous.schedule ~vjobs ~current:config ~demand ~plan ()
              with
              | exception Continuous.Stuck _ -> None
              | c -> Some (pooled, Continuous.makespan c)))
          instances
      in
      match results with
      | [] -> Printf.printf "%8d%14s\n" vm_count "(no sample)"
      | rs ->
        let mean f =
          List.fold_left (fun acc r -> acc +. f r) 0. rs
          /. float_of_int (List.length rs)
        in
        let pooled = mean fst and cont = mean snd in
        Printf.printf "%8d%14.0f%16.0f%11.1f%%\n" vm_count pooled cont
          (100. *. (pooled -. cont) /. Float.max pooled 1e-9))
    [ 54; 108; 216; 324 ]

let all samples timeout cls () =
  fig3 ();
  table1 ();
  fig10 samples timeout ();
  fig11 cls timeout ();
  fig12 cls ();
  fig13 cls timeout None ();
  headline cls timeout ();
  ablation cls timeout ();
  staggered cls timeout 120. ();
  continuous samples timeout ()

(* -- cmdliner ------------------------------------------------------------------ *)

open Cmdliner

let samples_arg =
  Arg.(value & opt int 10 & info [ "samples" ] ~doc:"Samples per Figure 10 point (paper: 30).")

let timeout_arg =
  Arg.(
    value & opt float 0.5
    & info [ "cp-timeout" ]
        ~doc:"CP solving timeout in seconds (paper: 40 s on 2006 hardware).")

let cls_arg =
  let parse = function
    | "W" | "w" -> Ok Nasgrid.W
    | "A" | "a" -> Ok Nasgrid.A
    | "B" | "b" -> Ok Nasgrid.B
    | s -> Error (`Msg (Printf.sprintf "unknown NGB class %S (use W, A or B)" s))
  in
  let print ppf c = Fmt.string ppf (Nasgrid.class_to_string c) in
  Arg.(
    value
    & opt (conv (parse, print)) Nasgrid.W
    & info [ "class" ] ~doc:"NGB class (W, A or B) for the cluster experiments.")

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let fig3_cmd = cmd "fig3" "Figure 3: transition durations" Term.(const fig3 $ const ())
let table1_cmd = cmd "table1" "Table 1: action costs" Term.(const table1 $ const ())

let fig10_cmd =
  cmd "fig10" "Figure 10: FFD vs Entropy reconfiguration cost"
    Term.(const fig10 $ samples_arg $ timeout_arg $ const ())

let fig11_cmd =
  cmd "fig11" "Figure 11: switch costs and durations"
    Term.(const fig11 $ cls_arg $ timeout_arg $ const ())

let fig12_cmd =
  cmd "fig12" "Figure 12: FCFS allocation diagram"
    Term.(const fig12 $ cls_arg $ const ())

let fig13_series_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "series" ] ~docv:"FILE"
        ~doc:"Also write the Entropy utilization series as JSON to FILE.")

let fig13_cmd =
  cmd "fig13" "Figure 13: utilization over time"
    Term.(const fig13 $ cls_arg $ timeout_arg $ fig13_series_arg $ const ())

let headline_cmd =
  cmd "headline" "Makespan comparison (the 40% claim)"
    Term.(const headline $ cls_arg $ timeout_arg $ const ())

let ablation_cmd =
  cmd "ablation" "Decision-module variants (RAM suspends, packing, no CP)"
    Term.(const ablation $ cls_arg $ timeout_arg $ const ())

let spacing_arg =
  Arg.(
    value & opt float 120.
    & info [ "spacing" ] ~doc:"Seconds between successive submissions.")

let staggered_cmd =
  cmd "staggered" "Staggered submissions vs an online RMS"
    Term.(const staggered $ cls_arg $ timeout_arg $ spacing_arg $ const ())

let continuous_cmd =
  cmd "continuous" "Pool barriers vs continuous switch execution"
    Term.(const continuous $ samples_arg $ timeout_arg $ const ())

let all_cmd =
  cmd "all" "Run every experiment"
    Term.(const all $ samples_arg $ timeout_arg $ cls_arg $ const ())

let () =
  let info =
    Cmd.info "experiments"
      ~doc:"Reproduce the tables and figures of the cluster-wide context switch paper"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fig3_cmd;
            table1_cmd;
            fig10_cmd;
            fig11_cmd;
            fig12_cmd;
            fig13_cmd;
            headline_cmd;
            ablation_cmd;
            staggered_cmd;
            continuous_cmd;
            all_cmd;
          ]))

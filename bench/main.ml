(* Benchmark harness: one Bechamel test per table/figure of the paper,
   plus microbenches of the constraint-solver substrate. Reported times
   are per full regeneration of the artefact's data (at reduced
   parameters — the experiment drivers in bin/ regenerate the real
   series). Run with:  dune exec bench/main.exe -- [flags]

   Flags:
     --only SUBSTR    run only benches whose name contains SUBSTR
     --quota SECONDS  per-bench measurement quota (default 0.8)
     --json FILE      append a run entry to the JSON trajectory file
     --label NAME     label of the JSON entry (default "run")

   The JSON file is the bench trajectory: each run appends one entry, so
   successive PRs can compare per-bench ns/run against every previous
   recording. *)

open Bechamel
open Toolkit
open Entropy_core
module Generator = Vworkload.Generator
module Trace = Vworkload.Trace
module Nasgrid = Vworkload.Nasgrid

(* -- shared fixtures (lazy: only forced when a selected bench needs them) -- *)

let instance54 =
  lazy (Generator.generate { Generator.default_spec with vm_target = 54; seed = 0 })

let instance216 =
  lazy (Generator.generate { Generator.default_spec with vm_target = 216; seed = 0 })

let rjsp_of instance =
  let { Generator.config; demand; vjobs } = instance in
  (config, demand, vjobs, Rjsp.solve ~config ~demand ~queue:vjobs ())

let rjsp54 = lazy (rjsp_of (Lazy.force instance54))
let rjsp216 = lazy (rjsp_of (Lazy.force instance216))

(* placement-engine probe shapes: the CI smoke instance matches the
   Fig. 10 probe used everywhere else (54 VMs / 15 nodes, seed 42); the
   acceptance instance is the dense 216-VM / 54-node cluster at seed 2,
   where CP alone times out solution-less within a 1 s deadline (0
   solutions over ~190k search nodes) while the local-search engines
   improve the FFD plan severalfold *)
let rjsp54_dense =
  lazy
    (rjsp_of
       (Generator.generate
          { Generator.default_spec with node_count = 15; vm_target = 54; seed = 42 }))

let rjsp216_dense =
  lazy
    (rjsp_of
       (Generator.generate
          { Generator.default_spec with node_count = 54; vm_target = 216; seed = 2 }))

let small_traces =
  lazy (List.init 2 (fun i -> Trace.make ~seed:i ~vm_count:4 Nasgrid.Ed Nasgrid.W))

let section52_traces =
  lazy
    (List.init 8 (fun i ->
         let family = List.nth Nasgrid.families (i mod 4) in
         Trace.make ~seed:i ~vm_count:9 family Nasgrid.W))

(* -- bench table (name, thunk); thunks so fixtures stay unforced under
   --only filtering (the runtest smoke invocation must stay cheap) -- *)

let mk name thunk = (name, fun () -> Test.make ~name (Staged.stage thunk))

let bench_table1 () =
  let config, demand, vjobs, outcome = Lazy.force rjsp54 in
  let target = Rgraph.normalize_sleeping ~current:config outcome.Rjsp.ffd_config in
  let plan = Planner.build_plan ~vjobs ~current:config ~target ~demand () in
  Test.make ~name:"table1/plan_cost"
    (Staged.stage (fun () -> ignore (Plan.cost config plan)))

let bench_fig10_rjsp () =
  let { Generator.config; demand; vjobs } = Lazy.force instance216 in
  Test.make ~name:"fig10/rjsp_ffd_216vm"
    (Staged.stage (fun () ->
         ignore (Rjsp.solve ~config ~demand ~queue:vjobs ())))

let bench_fig10_plan () =
  let config, demand, vjobs, outcome = Lazy.force rjsp216 in
  let target = Rgraph.normalize_sleeping ~current:config outcome.Rjsp.ffd_config in
  Test.make ~name:"fig10/plan_build_216vm"
    (Staged.stage (fun () ->
         ignore (Planner.build_plan ~vjobs ~current:config ~target ~demand ())))

let bench_fig10_optimize () =
  let config, demand, vjobs, outcome = Lazy.force rjsp54 in
  Test.make ~name:"fig10/cp_optimize_54vm"
    (Staged.stage (fun () ->
         ignore
           (Optimizer.optimize ~timeout:10. ~node_limit:300 ~vjobs
              ~current:config ~demand
              ~placed:(List.concat_map Vjob.vms outcome.Rjsp.running)
              ~target_base:outcome.Rjsp.ffd_config
              ~fallback:outcome.Rjsp.ffd_config ())))

let bench_fig11_sim () =
  let traces = Lazy.force small_traces in
  let nodes =
    Array.init 3 (fun i -> Node.testbed ~id:i ~name:(Printf.sprintf "N%d" i))
  in
  Test.make ~name:"fig11/entropy_sim_2vjobs"
    (Staged.stage (fun () ->
         ignore (Vsim.Runner.run_entropy ~cp_timeout:0.05 ~nodes ~traces ())))

(* Same instance as fig11/entropy_sim_2vjobs but wired through the fault
   pipeline with an empty injector: the delta between the two benches is
   the cost of supervised execution when no fault model is loaded, which
   must stay within measurement noise. *)
let bench_fault_nofault () =
  let traces = Lazy.force small_traces in
  let nodes =
    Array.init 3 (fun i -> Node.testbed ~id:i ~name:(Printf.sprintf "N%d" i))
  in
  let injector = Entropy_fault.Injector.none in
  Test.make ~name:"fault/sim_nofault_2vjobs"
    (Staged.stage (fun () ->
         ignore (Vsim.Runner.run_entropy ~cp_timeout:0.05 ~injector ~nodes ~traces ())))

(* Same instance again with an in-memory write-ahead journal: the delta
   over fault/sim_nofault_2vjobs is the cost of journaling every switch
   record; with no journal loaded (the two benches above) the hooks are
   [None] checks and must cost nothing measurable. *)
let bench_journal_sim () =
  let traces = Lazy.force small_traces in
  let nodes =
    Array.init 3 (fun i -> Node.testbed ~id:i ~name:(Printf.sprintf "N%d" i))
  in
  let injector = Entropy_fault.Injector.none in
  Test.make ~name:"journal/sim_journal_2vjobs"
    (Staged.stage (fun () ->
         let journal = Entropy_journal.Journal.mem () in
         ignore
           (Vsim.Runner.run_entropy ~cp_timeout:0.05 ~injector ~journal ~nodes
              ~traces ())))

(* Same journaled run against the file backend with group commit: the
   delta over journal/sim_journal_2vjobs is the real write+fsync cost;
   the acceptance target is this bench within 2x of the journal-off
   fig11 probe. *)
let bench_journal_binary_sim () =
  let traces = Lazy.force small_traces in
  let nodes =
    Array.init 3 (fun i -> Node.testbed ~id:i ~name:(Printf.sprintf "N%d" i))
  in
  let injector = Entropy_fault.Injector.none in
  let path = Filename.temp_file "entropy_bench_journal" ".wal" in
  at_exit (fun () -> if Sys.file_exists path then Sys.remove path);
  Test.make ~name:"journal/sim_binary_2vjobs"
    (Staged.stage (fun () ->
         if Sys.file_exists path then Sys.remove path;
         let journal = Entropy_journal.Journal.open_file path in
         ignore
           (Vsim.Runner.run_entropy ~cp_timeout:0.05 ~injector ~journal ~nodes
              ~traces ());
         Entropy_journal.Journal.close journal))

(* Group-commit microbench: append one pool's worth of records (16
   parallel starts, 16 terminal dones, the pool commit) bracketed by a
   switch. Batched uses the default thresholds (starts accumulate,
   terminals flush); unbatched forces a write+flush per record. *)
let journal_flush_records =
  lazy
    (let nodes =
       Array.init 4 (fun i -> Node.testbed ~id:i ~name:(Printf.sprintf "N%d" i))
     in
     let vms =
       Array.init 8 (fun i ->
           Vm.make ~id:i ~name:(Printf.sprintf "vm%02d" i) ~memory_mb:512)
     in
     let config = Configuration.make ~nodes ~vms in
     let actions =
       List.init 16 (fun i ->
           Action.Migrate { vm = i mod 8; src = i mod 4; dst = (i + 1) mod 4 })
     in
     let open Entropy_journal.Record in
     Switch_begin
       {
         switch = 0;
         at_s = 0.;
         source = config;
         target = config;
         plan = Plan.make [ actions ];
         demand = Demand.of_fn ~vm_count:8 (fun _ -> 60);
         seed = None;
       }
     :: List.concat
          [
            List.mapi
              (fun i a ->
                Action_started
                  { switch = 0; pool = 0; attempt = 1; at_s = float_of_int i; action = a })
              actions;
            List.mapi
              (fun i a ->
                Action_done
                  { switch = 0; pool = 0; at_s = 20. +. float_of_int i; action = a })
              actions;
            [
              Pool_committed { switch = 0; pool = 0; at_s = 40. };
              Switch_end { switch = 0; at_s = 40.; aborted = false };
            ];
          ])

let bench_journal_flush ~batched () =
  let records = Lazy.force journal_flush_records in
  let name =
    if batched then "journal/flush_batched" else "journal/flush_unbatched"
  in
  let path = Filename.temp_file "entropy_bench_flush" ".wal" in
  at_exit (fun () -> if Sys.file_exists path then Sys.remove path);
  Test.make ~name
    (Staged.stage (fun () ->
         if Sys.file_exists path then Sys.remove path;
         let j =
           if batched then Entropy_journal.Journal.open_file path
           else Entropy_journal.Journal.open_file ~flush_records:1 path
         in
         List.iter (Entropy_journal.Journal.append j) records;
         Entropy_journal.Journal.close j))

(* Flight-recorder analysis throughput on the acceptance probe: the
   Fig. 10 54-VM / 15-node seed-42 fault-free run journaled in memory
   (one simulation, forced lazily), then timeline reconstruction +
   critical-path attribution over every journaled switch per bench run.
   Acceptance target: < 10 ms, so [entropyctl explain] stays interactive
   on real journals. *)
let flight_records =
  lazy
    (let { Generator.config; demand = _; vjobs } =
       Generator.generate
         { Generator.default_spec with node_count = 15; vm_target = 54; seed = 42 }
     in
     let programs vm =
       [
         Vworkload.Program.Compute
           (240. +. float_of_int (((37 * vm) + 42) mod 480));
       ]
     in
     let journal = Entropy_journal.Journal.mem () in
     ignore
       (Vsim.Runner.run_custom ~cp_timeout:0.25 ~max_time:1e6 ~journal ~config
          ~vjobs ~programs ());
     Entropy_journal.Journal.records journal)

let bench_flight_explain () =
  let records = Lazy.force flight_records in
  Test.make ~name:"flight/explain_54vm"
    (Staged.stage (fun () ->
         let analyses = Entropy_flight.Report.analyze_records records in
         assert (analyses <> [] && List.for_all Entropy_flight.Report.healthy analyses)))

let bench_fig12_static () =
  let traces = Lazy.force section52_traces in
  Test.make ~name:"fig12/static_fcfs_8vjobs"
    (Staged.stage (fun () ->
         ignore
           (Batch.Static_alloc.run ~capacity:11 ~node_cpu:200 ~node_mem:3584
              traces)))

let bench_fig13_series () =
  let traces = Lazy.force section52_traces in
  let run =
    Batch.Static_alloc.run ~capacity:11 ~node_cpu:200 ~node_mem:3584 traces
  in
  Test.make ~name:"fig13/utilization_series"
    (Staged.stage (fun () -> ignore (Batch.Static_alloc.series ~period:30. run)))

let bench_ablation_heuristic name heuristic () =
  let { Generator.config; demand; vjobs } = Lazy.force instance216 in
  Test.make ~name
    (Staged.stage (fun () ->
         ignore (Rjsp.solve ~heuristic ~config ~demand ~queue:vjobs ())))

let bench_ablation_schedule () =
  let config, demand, vjobs, outcome = Lazy.force rjsp216 in
  let target = Rgraph.normalize_sleeping ~current:config outcome.Rjsp.ffd_config in
  let plan = Planner.build_plan ~vjobs ~current:config ~target ~demand () in
  Test.make ~name:"ablation/timed_schedule_216vm"
    (Staged.stage (fun () -> ignore (Schedule.of_plan config plan)))

let bench_ablation_continuous () =
  let config, demand, vjobs, outcome = Lazy.force rjsp216 in
  let target = Rgraph.normalize_sleeping ~current:config outcome.Rjsp.ffd_config in
  let plan = Planner.build_plan ~vjobs ~current:config ~target ~demand () in
  Test.make ~name:"ablation/continuous_schedule_216vm"
    (Staged.stage (fun () ->
         ignore (Continuous.schedule ~vjobs ~current:config ~demand ~plan ())))

let bench_ablation_online_rms () =
  let traces = Lazy.force section52_traces in
  let jobs =
    List.mapi
      (fun i t ->
        Batch.Static_alloc.job_of_trace ~node_cpu:200 ~node_mem:3584 ~id:i t)
      traces
  in
  Test.make ~name:"ablation/online_rms_8jobs"
    (Staged.stage (fun () -> ignore (Batch.Rms.simulate ~capacity:11 jobs)))

(* Model-checker throughput probe: bounded exploration of the canonical
   6-VM/3-node instance (fixed state count, so ns_per_run is the inverse
   of check/states_per_sec). A pruning or dedup regression shows up here
   directly as a slower run. *)
let bench_check_states () =
  let instance =
    lazy
      (let { Generator.config = source; demand; vjobs } =
         Generator.generate
           { Generator.default_spec with node_count = 3; vm_target = 6; seed = 42 }
       in
       let outcome = Rjsp.solve ~rules:[] ~config:source ~demand ~queue:vjobs () in
       let target =
         Rgraph.normalize_sleeping ~current:source outcome.Rjsp.ffd_config
       in
       let plan = Planner.build_plan ~vjobs ~current:source ~target ~demand () in
       (source, target, demand, vjobs, plan))
  in
  let limits =
    {
      Entropy_check.Checker.default_limits with
      depth = 4;
      sim_runs = 0;
      crash = false;
    }
  in
  Test.make ~name:"check/states_per_sec"
    (Staged.stage (fun () ->
         let source, target, demand, vjobs, plan = Lazy.force instance in
         let r =
           Entropy_check.Checker.check ~vjobs ~limits ~source ~target ~demand
             plan
         in
         assert (r.Entropy_check.Checker.violations = [])))

(* Local-search inner-loop throughput: 2000 annealing steps (propose,
   delta, Metropolis accept, apply) over the seeded 54-VM state. The
   JSON probe below derives sa_steps_per_sec from a timed run; this
   bench pins the per-step cost against regressions in the incremental
   evaluator. *)
let place_state_of (config, demand, vjobs, outcome) =
  ignore vjobs;
  let placed = List.concat_map Vjob.vms outcome.Rjsp.running in
  let st =
    Entropy_place.State.create ~current:config ~demand ~placed
      ~target_base:outcome.Rjsp.ffd_config ()
  in
  Entropy_place.State.seed_from st outcome.Rjsp.ffd_config;
  st

let bench_place_sa () =
  let st = lazy (place_state_of (Lazy.force rjsp54_dense)) in
  Test.make ~name:"place/sa_2k_steps"
    (Staged.stage (fun () ->
         let st = Lazy.force st in
         ignore
           (Entropy_place.Anneal.run ~seed:7 ~max_steps:2000
              ~deadline:infinity st)))

(* Daemon control-plane overhead: one simulated hour of the
   overload-tolerant event loop — open arrivals with bursts, fault
   injection, the full admission/trigger/ladder machinery — in
   deterministic mode, so the probe measures daemon bookkeeping rather
   than solver wall-clock. ns_per_run is wall time per simulated hour
   of daemon operation. *)
let bench_daemon_soak () =
  let config =
    {
      Entropy_daemon.Daemon.default_config with
      seed = 11;
      nodes = 12;
      submissions = 60;
      fail_rate = 0.05;
      deterministic = true;
      max_time = 3600.;
    }
  in
  Test.make ~name:"daemon/soak_1h"
    (Staged.stage (fun () ->
         let r = Entropy_daemon.Daemon.run config in
         assert r.Entropy_daemon.Daemon.queue_bounded))

let all_tests : (string * (unit -> Test.t)) list =
  [
    mk "fig3/duration_model" (fun () -> ignore (Vsim.Perf_model.figure3_rows ()));
    ("table1/plan_cost", bench_table1);
    mk "fig10/generate_216vm" (fun () ->
        ignore
          (Generator.generate
             { Generator.default_spec with vm_target = 216; seed = 1 }));
    ("fig10/rjsp_ffd_216vm", bench_fig10_rjsp);
    ("fig10/plan_build_216vm", bench_fig10_plan);
    ("fig10/cp_optimize_54vm", bench_fig10_optimize);
    ("fig11/entropy_sim_2vjobs", bench_fig11_sim);
    ("fault/sim_nofault_2vjobs", bench_fault_nofault);
    ("journal/sim_journal_2vjobs", bench_journal_sim);
    ("journal/sim_binary_2vjobs", bench_journal_binary_sim);
    ("journal/flush_batched", bench_journal_flush ~batched:true);
    ("journal/flush_unbatched", bench_journal_flush ~batched:false);
    ("check/states_per_sec", bench_check_states);
    ("flight/explain_54vm", bench_flight_explain);
    ("place/sa_2k_steps", bench_place_sa);
    ("daemon/soak_1h", bench_daemon_soak);
    ("fig12/static_fcfs_8vjobs", bench_fig12_static);
    ("fig13/utilization_series", bench_fig13_series);
    ( "ablation/rjsp_first_fit",
      bench_ablation_heuristic "ablation/rjsp_first_fit" Ffd.First_fit );
    ( "ablation/rjsp_best_fit",
      bench_ablation_heuristic "ablation/rjsp_best_fit" Ffd.Best_fit );
    ( "ablation/rjsp_worst_fit",
      bench_ablation_heuristic "ablation/rjsp_worst_fit" Ffd.Worst_fit );
    ("ablation/timed_schedule_216vm", bench_ablation_schedule);
    ("ablation/continuous_schedule_216vm", bench_ablation_continuous);
    ("ablation/online_rms_8jobs", bench_ablation_online_rms);
    mk "solver/domain_ops" (fun () ->
        let d = ref (Fdcp.Dom.interval 0 199) in
        for v = 0 to 198 do
          d := Fdcp.Dom.remove v !d
        done;
        ignore (Fdcp.Dom.value_exn !d));
    mk "solver/pack_propagation" (fun () ->
        let open Fdcp in
        let s = Store.create () in
        let vars = Array.init 40 (fun _ -> Store.new_var s ~lo:0 ~hi:19) in
        let items = Array.map (fun v -> Pack.item v 3) vars in
        Pack.post s ~items ~capacities:(Array.make 20 6) ();
        Store.propagate s;
        Array.iteri
          (fun i v -> if i < 20 then Store.instantiate s v (i mod 20))
          vars;
        Store.propagate s);
    mk "solver/search_packing" (fun () ->
        let open Fdcp in
        let s = Store.create () in
        let vars = Array.init 16 (fun _ -> Store.new_var s ~lo:0 ~hi:7) in
        let items = Array.mapi (fun i v -> Pack.item v (1 + (i mod 3))) vars in
        Pack.post s ~items ~capacities:(Array.make 8 4) ();
        ignore (Search.find_first s ~vars ()));
    mk "solver/knapsack_dp" (fun () ->
        let open Fdcp in
        let s = Store.create () in
        let sel = Array.init 12 (fun _ -> Store.new_var s ~lo:0 ~hi:1) in
        let sizes = Array.init 12 (fun i -> 3 + (i mod 5)) in
        let load = Store.new_var s ~lo:20 ~hi:30 in
        ignore (Knapsack.post s ~sizes ~selectors:sel ~load);
        Store.propagate s);
  ]

(* -- one-shot placement-engine probes (BENCH_place.json) ----------------- *)

(* One Portfolio.solve per instance, with the resulting plan re-checked
   by the independent verifier. The 216-VM run also races CP alone under
   the same deadline, recording that it cannot improve on FFD where the
   portfolio does; sa_steps_per_sec is measured on the 54-VM state. *)

type place_run = {
  vms : int;
  p_nodes : int;
  ffd_cost : int;
  best_cost : int;
  winner : string;
  viable : bool;
  run_elapsed_s : float;
}

type place_probe = {
  engine : string;
  deadline_s : float;
  p216 : place_run;
  p216_cp_improved : bool;  (* CP alone, same deadline, beat FFD? *)
  p54 : place_run;
  sa_steps_per_sec : float;
}

let place_run ~engine ~deadline inst =
  let config, demand, vjobs, outcome = inst in
  let placed = List.concat_map Vjob.vms outcome.Rjsp.running in
  let report =
    Entropy_place.Portfolio.solve ~deadline ~engine ~vjobs ~current:config
      ~demand ~placed ~target_base:outcome.Rjsp.ffd_config
      ~fallback:outcome.Rjsp.ffd_config ()
  in
  let r = report.Entropy_place.Portfolio.result in
  {
    vms = List.length placed;
    p_nodes = Configuration.node_count config;
    ffd_cost = report.Entropy_place.Portfolio.ffd_cost;
    best_cost = r.Optimizer.cost;
    winner = report.Entropy_place.Portfolio.winner;
    viable =
      Entropy_analysis.Verifier.is_clean ~vjobs ~current:config
        ~target:r.Optimizer.target ~demand r.Optimizer.plan;
    run_elapsed_s = report.Entropy_place.Portfolio.elapsed;
  }

let place_stats ~engine ~deadline =
  let p216 = place_run ~engine ~deadline (Lazy.force rjsp216_dense) in
  let cp216 = place_run ~engine:`Cp ~deadline (Lazy.force rjsp216_dense) in
  let p54 = place_run ~engine ~deadline (Lazy.force rjsp54_dense) in
  let st = place_state_of (Lazy.force rjsp54_dense) in
  let t0 = Unix.gettimeofday () in
  let sa =
    Entropy_place.Anneal.run ~seed:7 ~deadline:(t0 +. 0.25) st
  in
  let sa_elapsed = Unix.gettimeofday () -. t0 in
  {
    engine = Entropy_place.Portfolio.engine_to_string engine;
    deadline_s = deadline;
    p216;
    p216_cp_improved = cp216.best_cost < cp216.ffd_cost;
    p54;
    sa_steps_per_sec =
      float_of_int sa.Entropy_place.Anneal.steps /. Float.max 1e-9 sa_elapsed;
  }

(* -- JSON trajectory --------------------------------------------------- *)

let place_run_json name r =
  Printf.sprintf
    "\"%s\": { \"vms\": %d, \"nodes\": %d, \"ffd_cost\": %d, \"cost\": %d, \
     \"winner\": %S, \"viable\": %b, \"elapsed_s\": %.3f }"
    name r.vms r.p_nodes r.ffd_cost r.best_cost r.winner r.viable
    r.run_elapsed_s

let json_entry ~label results place =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "  { \"label\": %S,\n" label);
  Buffer.add_string b "    \"ns_per_run\": {\n";
  List.iteri
    (fun i (name, ns, _) ->
      Buffer.add_string b
        (Printf.sprintf "      %S: %.1f%s\n" name ns
           (if i = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string b "    }";
  (match place with
  | None -> ()
  | Some p ->
    Buffer.add_string b
      (Printf.sprintf
         ",\n\
         \    \"place\": { \"engine\": %S, \"deadline_s\": %g,\n\
         \      %s,\n\
         \      \"cp_alone_216vm_improved\": %b,\n\
         \      %s,\n\
         \      \"sa_steps_per_sec\": %.0f }"
         p.engine p.deadline_s
         (place_run_json "portfolio_216vm" p.p216)
         p.p216_cp_improved
         (place_run_json "portfolio_54vm" p.p54)
         p.sa_steps_per_sec));
  Buffer.add_string b " }";
  Buffer.contents b

let append_json path entry =
  let prev =
    if Sys.file_exists path then begin
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      String.trim s
    end
    else ""
  in
  let content =
    if prev = "" || prev = "[]" then "[\n" ^ entry ^ "\n]\n"
    else
      match String.rindex_opt prev ']' with
      | Some i ->
        String.trim (String.sub prev 0 i) ^ ",\n" ^ entry ^ "\n]\n"
      | None -> "[\n" ^ entry ^ "\n]\n"
  in
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(* -- driver ------------------------------------------------------------ *)

let () =
  let json = ref "" in
  let label = ref "run" in
  let only = ref "" in
  let quota = ref 0.8 in
  let place_stats_flag = ref false in
  let place_deadline = ref 1.0 in
  let engine = ref "portfolio" in
  let trace = ref "" in
  Arg.parse
    [
      ("--json", Arg.Set_string json, "FILE append a run entry to FILE");
      ("--label", Arg.Set_string label, "NAME label of the JSON entry");
      ("--only", Arg.Set_string only, "SUBSTR run only matching benches");
      ("--quota", Arg.Set_float quota, "SECONDS per-bench quota (default 0.8)");
      ( "--place-stats",
        Arg.Set place_stats_flag,
        " record placement-engine probes (portfolio vs FFD vs CP alone)" );
      ( "--place-deadline",
        Arg.Set_float place_deadline,
        "SECONDS placement-probe deadline (default 1)" );
      ( "--engine",
        Arg.Set_string engine,
        "ENGINE placement probe engine: cp, anneal or portfolio (default \
         portfolio)" );
      ( "--trace",
        Arg.Set_string trace,
        "FILE record a Chrome trace of the benchmarked code (adds \
         instrumentation overhead: do not trust timings of a traced run)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "dune exec bench/main.exe -- [flags]";
  if !trace <> "" then begin
    Entropy_obs.Obs.enabled := true;
    Entropy_obs.Obs.reset ()
  end;
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    ln = 0
    ||
    let rec go i =
      if i + ln > lh then false
      else if String.sub hay i ln = needle then true
      else go (i + 1)
    in
    go 0
  in
  let selected =
    List.filter (fun (name, _) -> contains name !only) all_tests
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second !quota) ~kde:None () in
  Printf.printf "%-36s%16s%10s\n" "benchmark" "time/run" "r^2";
  let results =
    List.concat_map
      (fun (_, make_test) ->
        let test = make_test () in
        let results = Benchmark.all cfg instances test in
        let analysis = Analyze.all ols Instance.monotonic_clock results in
        Hashtbl.fold
          (fun name ols_result acc ->
            let time_ns =
              match Analyze.OLS.estimates ols_result with
              | Some (t :: _) -> t
              | _ -> nan
            in
            let r2 =
              match Analyze.OLS.r_square ols_result with
              | Some r -> r
              | None -> nan
            in
            let pretty t =
              if t > 1e9 then Printf.sprintf "%8.2f s " (t /. 1e9)
              else if t > 1e6 then Printf.sprintf "%8.2f ms" (t /. 1e6)
              else if t > 1e3 then Printf.sprintf "%8.2f us" (t /. 1e3)
              else Printf.sprintf "%8.0f ns" t
            in
            Printf.printf "%-36s%16s%10.3f\n%!" name (pretty time_ns) r2;
            (name, time_ns, r2) :: acc)
          analysis [])
      selected
  in
  let results = List.rev results in
  let place =
    if !place_stats_flag then begin
      let engine =
        match Entropy_place.Portfolio.engine_of_string !engine with
        | Some e -> e
        | None ->
          raise (Arg.Bad (Printf.sprintf "unknown engine %S" !engine))
      in
      let p = place_stats ~engine ~deadline:!place_deadline in
      Printf.printf
        "place probe (%s, %.1fs): 216vm ffd=%d best=%d winner=%s viable=%b \
         (cp alone improved: %b); 54vm ffd=%d best=%d viable=%b; sa %.0f \
         steps/s\n\
         %!"
        p.engine p.deadline_s p.p216.ffd_cost p.p216.best_cost p.p216.winner
        p.p216.viable p.p216_cp_improved p.p54.ffd_cost p.p54.best_cost
        p.p54.viable p.sa_steps_per_sec;
      Some p
    end
    else None
  in
  if !json <> "" then
    append_json !json (json_entry ~label:!label results place);
  if !trace <> "" then begin
    Entropy_obs.Obs.write_trace !trace;
    Printf.printf "trace written to %s (%d events, %d dropped)\n" !trace
      (Entropy_obs.Trace.recorded ())
      (Entropy_obs.Trace.dropped ())
  end

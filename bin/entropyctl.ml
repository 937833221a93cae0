(* entropyctl — inspect a cluster description and plan cluster-wide
   context switches against it.

     entropyctl status  cluster.ecl        viability + rule report
     entropyctl plan    cluster.ecl        one decision iteration + plan
     entropyctl actions cur.ecl new.ecl    raw plan between two specs
     entropyctl lint    cluster.ecl        static analysis of the CP
                                           model and the planned switch
     entropyctl check   [cluster.ecl]      model-check the planned switch:
                                           interleavings + crash states
     entropyctl profile                    one optimisation on a Fig. 10
                                           instance, per-phase timings
     entropyctl explain [--journal FILE]   flight-recorder report: causal
                                           timeline, critical path and
                                           makespan attribution of every
                                           journaled switch *)

open Entropy_core
module Spec = Entropy_cli.Spec
module Obs = Entropy_obs.Obs
module Portfolio = Entropy_place.Portfolio

(* -- logging ---------------------------------------------------------------- *)

(* [-v] raises the global level (info, then debug); [--debug SRC] turns
   debug on for specific sources only ("cp" matches "entropy.cp"). *)
let setup_logs verbosity debug =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level
    (if verbosity >= 2 then Some Logs.Debug
     else if verbosity = 1 then Some Logs.Info
     else Some Logs.Warning);
  List.iter
    (fun name ->
      let matched =
        List.filter
          (fun src ->
            let n = Logs.Src.name src in
            n = name || n = "entropy." ^ name)
          (Logs.Src.list ())
      in
      if matched = [] then
        Printf.eprintf "entropyctl: unknown log source %S (known: %s)\n" name
          (String.concat ", "
             (List.sort String.compare
                (List.map Logs.Src.name (Logs.Src.list ()))))
      else
        List.iter (fun src -> Logs.Src.set_level src (Some Logs.Debug)) matched)
    debug

(* -- observability ----------------------------------------------------------- *)

let obs_setup trace metrics =
  if trace <> None || metrics <> None then begin
    Obs.enabled := true;
    Obs.reset ()
  end

let obs_write trace metrics =
  Option.iter Obs.write_trace trace;
  Option.iter Obs.write_metrics metrics

(* Ring-buffer wrap-around silently truncates traces; surface it
   wherever spans feed an analysis (profile, explain) so a skewed
   attribution cannot pass for a complete one. *)
let warn_dropped_spans () =
  let dropped = Entropy_obs.Trace.dropped () in
  if dropped > 0 then
    Printf.printf
      "warning: %d trace span(s) dropped by ring-buffer wrap-around — \
       phase totals and attribution may be incomplete\n"
      dropped

let write_json_file path json =
  let oc = open_out path in
  output_string oc (Entropy_obs.Json.to_string json);
  output_char oc '\n';
  close_out oc

let load_or_exit path =
  try Spec.load path with
  | Spec.Parse_error { line; message } ->
    Printf.eprintf "%s:%d: %s\n" path line message;
    exit 2
  | Sys_error e ->
    Printf.eprintf "%s\n" e;
    exit 2

(* -- status --------------------------------------------------------------- *)

let status path =
  let spec = load_or_exit path in
  let { Spec.config; demand; vjobs; rules; _ } = spec in
  let cpu, mem = Configuration.loads config demand in
  Printf.printf "%-12s%14s%16s\n" "node" "cpu use" "memory use";
  Array.iteri
    (fun i node ->
      Printf.printf "%-12s%9d /%4d%10d /%5d%s\n" (Spec.node_name spec i)
        cpu.(i) (Node.cpu_capacity node) mem.(i) (Node.memory_mb node)
        (if
           cpu.(i) > Node.cpu_capacity node || mem.(i) > Node.memory_mb node
         then "  OVERLOADED"
         else ""))
    (Configuration.nodes config);
  Printf.printf "\nviable: %b\n" (Configuration.is_viable config demand);
  List.iter
    (fun vj ->
      Printf.printf "vjob %-12s: %s\n" (Vjob.name vj)
        (match Configuration.vjob_state config vj with
        | Some s -> Lifecycle.state_to_string s
        | None -> "inconsistent (switch in progress?)"))
    vjobs;
  (match Placement_rules.violated config rules with
  | [] -> if rules <> [] then Printf.printf "all %d rules hold\n" (List.length rules)
  | violated ->
    List.iter
      (fun r -> Fmt.pr "rule violated: %a@." Placement_rules.pp r)
      violated;
    exit 1);
  if not (Configuration.is_viable config demand) then exit 1

(* -- plan ----------------------------------------------------------------- *)

let plan path cp_timeout engine ram trace metrics =
  obs_setup trace metrics;
  let spec =
    Obs.span ~cat:"loop" ~name:"loop.observe" (fun () -> load_or_exit path)
  in
  let { Spec.config; demand; vjobs; rules; _ } = spec in
  let decision =
    Portfolio.decision ~engine ~deadline:cp_timeout ~rules ~suspend_to_ram:ram
      ()
  in
  let observation = { Decision.config; demand; queue = vjobs; finished = [] } in
  let result =
    Obs.span ~cat:"loop" ~name:"loop.decide" (fun () ->
        decision.Decision.decide observation)
  in
  obs_write trace metrics;
  List.iter
    (fun vj ->
      let before = Configuration.vjob_state config vj in
      let after = Configuration.vjob_state result.Optimizer.target vj in
      if before <> after then
        Printf.printf "vjob %-12s: %s -> %s\n" (Vjob.name vj)
          (match before with
          | Some s -> Lifecycle.state_to_string s
          | None -> "?")
          (match after with
          | Some s -> Lifecycle.state_to_string s
          | None -> "?"))
    vjobs;
  if Plan.is_empty result.Optimizer.plan then
    print_endline "nothing to do: the configuration already matches"
  else begin
    Printf.printf "reconfiguration plan (cost %d):\n" result.Optimizer.cost;
    Fmt.pr "%a" (Spec.pp_plan spec) result.Optimizer.plan;
    let pooled =
      Schedule.makespan (Schedule.of_plan config result.Optimizer.plan)
    in
    (match
       Continuous.schedule ~vjobs ~current:config ~demand
         ~plan:result.Optimizer.plan ()
     with
    | continuous ->
      Printf.printf
        "estimated duration: %.0f s (pool barriers) / %.0f s (continuous)\n"
        pooled
        (Continuous.makespan continuous)
    | exception Continuous.Stuck _ ->
      Printf.printf "estimated duration: %.0f s (pool barriers)\n" pooled)
  end;
  if not result.Optimizer.rules_satisfied then begin
    print_endline "warning: some placement rules could not be satisfied";
    exit 1
  end

(* -- actions (diff between two specs) -------------------------------------- *)

let actions current_path target_path =
  let cur = load_or_exit current_path in
  let tgt = load_or_exit target_path in
  if
    Configuration.vm_count cur.Spec.config
    <> Configuration.vm_count tgt.Spec.config
  then begin
    Printf.eprintf "the two descriptions declare different VM sets\n";
    exit 2
  end;
  let target =
    Rgraph.normalize_sleeping ~current:cur.Spec.config tgt.Spec.config
  in
  match
    Planner.build ~vjobs:cur.Spec.vjobs ~current:cur.Spec.config ~target
      ~demand:cur.Spec.demand ()
  with
  | plan ->
    Printf.printf "plan (cost %d):\n" (Plan.cost cur.Spec.config plan);
    Fmt.pr "%a" (Spec.pp_plan cur) plan
  | exception Planner.Stuck reason ->
    Printf.eprintf "no feasible plan: %s\n" reason;
    exit 1
  | exception Rgraph.Unreachable reason ->
    Printf.eprintf "impossible transition: %s\n" reason;
    exit 1

(* -- lint ------------------------------------------------------------------ *)

(* Static analysis of the reconfiguration problem behind a description:
   lint the CP model the optimizer would search, and replay the
   heuristic (FFD) plan through the independent verifier. *)

let lint path =
  let spec = load_or_exit path in
  let { Spec.config; demand; vjobs; rules; _ } = spec in
  let outcome = Rjsp.solve ~rules ~config ~demand ~queue:vjobs () in
  let placed = List.concat_map Vjob.vms outcome.Rjsp.running in
  let lint_findings =
    if placed = [] then begin
      (* an empty placement makes every model lint vacuous *)
      print_endline
        "model lint: skipped (no vjob admitted, the CP model has no \
         decision variables)";
      []
    end
    else begin
      let model =
        Optimizer.build_model ~rules ~current:config ~demand ~placed
          ~target_base:outcome.Rjsp.ffd_config ()
      in
      let findings =
        Entropy_analysis.Linter.lint ~obj:model.Optimizer.obj
          model.Optimizer.store
      in
      Fmt.pr "%a@." Entropy_analysis.Linter.pp_report findings;
      findings
    end
  in
  let target =
    Rgraph.normalize_sleeping ~current:config outcome.Rjsp.ffd_config
  in
  let plan_findings =
    match Planner.build ~vjobs ~current:config ~target ~demand () with
    | plan ->
      let findings =
        Entropy_analysis.Verifier.verify ~vjobs ~current:config ~target
          ~demand plan
      in
      if Plan.is_empty plan then
        print_endline "heuristic plan: empty (nothing to verify)"
      else
        Fmt.pr "heuristic plan (%d actions): %a@." (Plan.action_count plan)
          Entropy_analysis.Verifier.pp_report findings;
      findings
    | exception Planner.Stuck reason ->
      Printf.printf "heuristic plan: stuck (%s), nothing to verify\n" reason;
      []
  in
  if
    plan_findings <> []
    || List.exists
         (function
           | Entropy_analysis.Linter.Inconsistent_model _ -> true
           | _ -> false)
         lint_findings
  then exit 1

(* -- simulate ----------------------------------------------------------------- *)

let simulate path cp_timeout ram trace metrics =
  obs_setup trace metrics;
  let spec = load_or_exit path in
  let with_programs =
    Array.exists (fun p -> p <> []) spec.Spec.programs
  in
  if not with_programs then begin
    Printf.eprintf
      "no vm declares a program= field: nothing to simulate\n\
       (add e.g. `program=C600` to the vm lines)\n";
    exit 2
  end;
  let decision =
    Decision.consolidation ~cp_timeout ~rules:spec.Spec.rules
      ~suspend_to_ram:ram ()
  in
  let result =
    Vsim.Runner.run_custom ~decision ~config:spec.Spec.config
      ~vjobs:spec.Spec.vjobs
      ~programs:(fun vm -> spec.Spec.programs.(vm))
      ()
  in
  Printf.printf "completed %d vjobs in %.1f min (%d control-loop iterations)\n"
    (List.length result.Vsim.Runner.completions)
    (result.Vsim.Runner.makespan /. 60.)
    result.Vsim.Runner.iterations;
  List.iter
    (fun (vj, t) -> Printf.printf "  %-16s done at %7.0f s\n" (Vjob.name vj) t)
    result.Vsim.Runner.completions;
  Printf.printf "\ncluster-wide context switches:\n";
  List.iter
    (fun s -> Fmt.pr "  %a@." Vsim.Executor.pp_record s)
    result.Vsim.Runner.switches;
  obs_write trace metrics

(* -- profile ------------------------------------------------------------------ *)

(* One optimisation over a generated Figure 10-style instance, with the
   observability layer forced on: prints the plan summary, the per-phase
   wall-time table (from the trace spans) and the counter registry. *)

(* Ring size for [profile]: a traced search records one span per
   propagating node, several hundred thousand per second, and the
   default ring would wrap inside a sub-second search. Same size as the
   benchmark's traced runs. *)
let profile_trace_capacity = 1 lsl 20

let profile vms cp_timeout engine seed json trace metrics =
  Obs.enabled := true;
  Obs.reset ();
  Entropy_obs.Trace.set_capacity profile_trace_capacity;
  let instance =
    Obs.span ~cat:"profile" ~name:"profile.generate" (fun () ->
        Vworkload.Generator.generate
          { Vworkload.Generator.default_spec with vm_target = vms; seed })
  in
  let { Vworkload.Generator.config; demand; vjobs } = instance in
  let outcome =
    Obs.span ~cat:"profile" ~name:"profile.rjsp" (fun () ->
        Rjsp.solve ~config ~demand ~queue:vjobs ())
  in
  let placed = List.concat_map Vjob.vms outcome.Rjsp.running in
  (* [--engine cp] probes the optimiser directly, so the counters and
     phases are the CP search's alone; [--engine portfolio] goes through
     the portfolio *)
  let report =
    Obs.span ~cat:"loop" ~name:"loop.decide" (fun () ->
        match engine with
        | `Cp ->
          let result =
            Optimizer.optimize ~timeout:cp_timeout ~vjobs
              ~current:config ~demand ~placed
              ~target_base:outcome.Rjsp.ffd_config
              ~fallback:outcome.Rjsp.ffd_config ()
          in
          None, result
        | `Portfolio ->
          let report =
            Portfolio.solve ~deadline:cp_timeout ~vjobs
              ~current:config ~demand ~placed
              ~target_base:outcome.Rjsp.ffd_config
              ~fallback:outcome.Rjsp.ffd_config ()
          in
          Some report, report.Portfolio.result)
  in
  let portfolio_report, result = report in
  Printf.printf "instance: %d VMs over %d nodes (seed %d), %d vjobs\n" vms
    (Configuration.node_count config)
    seed (List.length vjobs);
  Printf.printf "plan: %d actions, cost %d%s\n"
    (Plan.action_count result.Optimizer.plan)
    result.Optimizer.cost
    (if result.Optimizer.improved then " (beat the heuristic)" else "");
  Option.iter
    (fun r ->
      Printf.printf "engine: %s, winner %s, ffd cost %d%s\n"
        (Portfolio.engine_to_string engine)
        r.Portfolio.winner r.Portfolio.ffd_cost
        (match r.Portfolio.local_cost with
        | Some c -> Printf.sprintf ", best local-search cost %d" c
        | None -> ""))
    portfolio_report;
  (match result.Optimizer.stats with
  | Some st -> Fmt.pr "search: %a@." Fdcp.Search.pp_stats st
  | None -> ());
  Printf.printf "\n%-28s%8s%14s%12s\n" "phase" "count" "total ms" "mean us";
  List.iter
    (fun (name, count, total_us) ->
      Printf.printf "%-28s%8d%14.2f%12.1f\n" name count (total_us /. 1000.)
        (total_us /. float_of_int (max 1 count)))
    (Entropy_obs.Trace.aggregate ());
  (match Entropy_obs.Metrics.counters () with
  | [] -> ()
  | counters ->
    Printf.printf "\n%-36s%12s\n" "counter" "value";
    List.iter (fun (n, v) -> Printf.printf "%-36s%12d\n" n v) counters);
  warn_dropped_spans ();
  (* machine-readable profile, mirroring the [plan --metrics] JSON
     conventions: one object, snake_case keys, seconds/us suffixes *)
  Option.iter
    (fun path ->
      let open Entropy_obs.Json in
      write_json_file path
        (Obj
           [
             ( "instance",
               Obj
                 [
                   ("vms", Int vms);
                   ("nodes", Int (Configuration.node_count config));
                   ("seed", Int seed);
                   ("vjobs", Int (List.length vjobs));
                 ] );
             ( "plan",
               Obj
                 [
                   ("actions", Int (Plan.action_count result.Optimizer.plan));
                   ("cost_mb", Int result.Optimizer.cost);
                   ("improved", Bool result.Optimizer.improved);
                 ] );
             ( "engine",
               Obj
                 (("name", String (Portfolio.engine_to_string engine))
                 ::
                 (match portfolio_report with
                 | None -> []
                 | Some r ->
                   [
                     ("winner", String r.Portfolio.winner);
                     ("ffd_cost_mb", Int r.Portfolio.ffd_cost);
                     ( "local_cost_mb",
                       match r.Portfolio.local_cost with
                       | Some c -> Int c
                       | None -> Null );
                     ("elapsed_s", Float r.Portfolio.elapsed);
                   ])) );
             ( "phases",
               List
                 (List.map
                    (fun (name, count, total_us) ->
                      Obj
                        [
                          ("name", String name);
                          ("count", Int count);
                          ("total_us", Float total_us);
                          ( "mean_us",
                            Float (total_us /. float_of_int (max 1 count)) );
                        ])
                    (Entropy_obs.Trace.aggregate ())) );
             ( "counters",
               Obj
                 (List.map
                    (fun (n, v) -> (n, Int v))
                    (Entropy_obs.Metrics.counters ())) );
             ( "trace",
               Obj
                 [
                   ("recorded", Int (Entropy_obs.Trace.recorded ()));
                   ("dropped", Int (Entropy_obs.Trace.dropped ()));
                 ] );
           ]))
    json;
  obs_write trace metrics

(* -- chaos -------------------------------------------------------------------- *)

(* Fault-injection experiment on a generated Figure 10-style instance:
   run the simulated control loop fault-free, then again with a seeded
   injector (probabilistic action failures, optional scripted node
   crashes), and report retries, timeouts, repairs and the makespan
   inflation. Every repair plan the run executed is re-checked with the
   independent verifier; exit 0 only when all vjobs complete, the final
   configuration is viable and every repair plan is clean.

   With [--journal FILE] every switch goes through the write-ahead
   journal, and [--kill-at T] kills the simulated controller at T
   seconds — the canonical crash: the run reports killed:true and
   [entropyctl resume] picks the journal up. *)

(* the chaos/resume pair must regenerate the exact same instance from
   (vms, nodes, seed): deterministic per-VM compute programs of
   240..719 s of work *)
let chaos_instance ~vms ~nodes ~seed =
  let instance =
    Vworkload.Generator.generate
      {
        Vworkload.Generator.default_spec with
        node_count = nodes;
        vm_target = vms;
        seed;
      }
  in
  let { Vworkload.Generator.config; demand = _; vjobs } = instance in
  let programs vm =
    [
      Vworkload.Program.Compute
        (240. +. float_of_int (((37 * vm) + seed) mod 480));
    ]
  in
  (config, vjobs, programs)

(* -- check (model checker) ---------------------------------------------------

   Derive the (source, target, plan) switch — from a cluster
   description, or a generated Fig. 10-style instance — and hand it to
   the model checker: every interleaving the pool barriers admit (up to
   trace equivalence), every crash cut of the journal trace, plus
   conformance runs of the real executor under enumerated tie-breaks. *)

let derived_switch ~source ~demand ~vjobs ~rules =
  let outcome = Rjsp.solve ~rules ~config:source ~demand ~queue:vjobs () in
  let target =
    Rgraph.normalize_sleeping ~current:source outcome.Rjsp.ffd_config
  in
  match Planner.build ~vjobs ~current:source ~target ~demand () with
  | plan -> (target, plan)
  | exception Planner.Stuck reason ->
    Printf.eprintf "check: planner stuck (%s), nothing to check\n" reason;
    exit 2

let model_check cluster vms nodes seed depth max_states max_crash
    max_violations exhaustive no_crash no_torn sim_runs invariant_names
    json_path seed_file replay_path =
  let module C = Entropy_check.Checker in
  let module I = Entropy_check.Invariant in
  let module W = Entropy_check.Witness in
  let invariants =
    match invariant_names with
    | [] -> I.all
    | names ->
      List.map
        (fun n ->
          match I.of_string n with
          | Some i -> i
          | None ->
            Printf.eprintf "check: unknown invariant %S (known: %s)\n" n
              (String.concat ", " (List.map I.to_string I.all));
            exit 2)
        names
  in
  let source, demand, vjobs, rules =
    match cluster with
    | Some path ->
      let { Spec.config; demand; vjobs; rules; _ } = load_or_exit path in
      (config, demand, vjobs, rules)
    | None ->
      let { Vworkload.Generator.config; demand; vjobs } =
        Vworkload.Generator.generate
          {
            Vworkload.Generator.default_spec with
            node_count = nodes;
            vm_target = vms;
            seed;
          }
      in
      (config, demand, vjobs, [])
  in
  let target, plan = derived_switch ~source ~demand ~vjobs ~rules in
  Printf.printf "check: %d VMs / %d nodes, plan of %d actions in %d pools\n"
    (Configuration.vm_count source)
    (Configuration.node_count source)
    (Plan.action_count plan) (Plan.pool_count plan);
  match replay_path with
  | Some path -> (
    let witness =
      try W.of_file path with
      | W.Malformed m | Sys_error m ->
        Printf.eprintf "check: %s\n" m;
        exit 2
    in
    let ctx =
      Entropy_check.Model.make_ctx ~vjobs ~invariants ~source ~target ~demand
        plan
    in
    match C.replay ctx witness with
    | None ->
      Printf.printf "replay: schedule not executable against this plan\n";
      exit 1
    | Some [] -> Printf.printf "replay: no violation\n"
    | Some vs ->
      Printf.printf "replay: %d violation(s)\n" (List.length vs);
      List.iter
        (fun v -> Fmt.pr "  %a@." Entropy_check.Invariant.pp_violation v)
        vs;
      exit 1)
  | None ->
    let limits =
      {
        C.depth;
        max_states;
        max_crash_checks = max_crash;
        max_violations;
        exhaustive;
        crash = not no_crash;
        torn = not no_torn;
        sim_runs;
      }
    in
    let report =
      C.check ~vjobs ~invariants ~limits ~source ~target ~demand plan
    in
    Fmt.pr "%a" C.pp_report report;
    Option.iter
      (fun p -> write_json_file p (C.report_to_json report))
      json_path;
    (match (report.C.counterexample, seed_file) with
    | Some c, Some p ->
      W.to_file p c.C.minimized;
      Printf.printf "minimized counterexample written to %s\n" p
    | _ -> ());
    if report.C.violations <> [] then exit 1

let chaos vms nodes seed fail_rate crashes timeout_factor retries cp_timeout
    max_time kill_at journal_path json trace metrics =
  obs_setup trace metrics;
  let config, vjobs, programs = chaos_instance ~vms ~nodes ~seed in
  let vm_count = Configuration.vm_count config in
  let journal =
    Option.map
      (fun path ->
        (* chaos starts a fresh experiment: truncate any stale journal *)
        (try Sys.remove path with Sys_error _ -> ());
        Entropy_journal.Journal.open_file path)
      journal_path
  in
  let run ?injector ?policy ?journal ?kill_at () =
    Vsim.Runner.run_custom ~cp_timeout ~max_time ?injector ?policy ?journal
      ?kill_at ~config ~vjobs ~programs ()
  in
  Printf.printf
    "chaos: %d VMs / %d nodes (seed %d), %d vjobs, fail rate %.0f%%, %d \
     scripted crashes\n"
    vm_count
    (Configuration.node_count config)
    seed (List.length vjobs) (fail_rate *. 100.) (List.length crashes);
  let baseline = run () in
  let models =
    Entropy_fault.Injector.Fail_rate { kind = None; rate = fail_rate }
    :: List.map
         (fun (node, at_s) ->
           Entropy_fault.Injector.Crash_node { node; at_s })
         crashes
  in
  let injector = Entropy_fault.Injector.create ~seed models in
  let policy =
    Entropy_fault.Supervisor.make_policy ~timeout_factor ~max_retries:retries
      ()
  in
  (* the faulty run always goes through a journal: the flight recorder
     reconstructs its timeline from the records afterwards (an
     in-memory journal when no --journal file was asked for) *)
  let flight_journal =
    match journal with Some j -> j | None -> Entropy_journal.Journal.mem ()
  in
  let faulty = run ~injector ~policy ~journal:flight_journal ?kill_at () in
  let flight_records = Entropy_journal.Journal.records flight_journal in
  Option.iter Entropy_journal.Journal.close journal;
  obs_write trace metrics;
  let module R = Vsim.Runner in
  let module S = Vsim.Session in
  let module E = Vsim.Executor in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 faulty.R.switches in
  let failures = total (fun r -> r.E.failed) in
  let retried = total (fun r -> r.E.retries) in
  let timeouts = total (fun r -> r.E.timeouts) in
  let node_losses = total (fun r -> r.E.node_losses) in
  let salvaged =
    List.length (List.filter (fun rr -> rr.S.source = `Salvaged) faulty.R.repairs)
  in
  let replanned = List.length faulty.R.repairs - salvaged in
  let dirty =
    List.filter
      (fun rr ->
        Entropy_analysis.Verifier.verify ~vjobs:rr.S.queue
          ~current:rr.S.before ~target:rr.S.target ~demand:rr.S.demand
          rr.S.plan
        <> [])
      faulty.R.repairs
  in
  let completed = List.length faulty.R.completions = List.length vjobs in
  let final_viable =
    Configuration.is_viable faulty.R.final_config
      (Demand.uniform ~vm_count Vworkload.Program.compute_demand)
  in
  Printf.printf "fault-free makespan: %7.0f s (%d switches)\n"
    baseline.R.makespan
    (List.length baseline.R.switches);
  Printf.printf "faulty     makespan: %7.0f s (%d switches)  inflation %+.1f%%\n"
    faulty.R.makespan
    (List.length faulty.R.switches)
    (if baseline.R.makespan > 0. then
       (faulty.R.makespan -. baseline.R.makespan) /. baseline.R.makespan
       *. 100.
     else 0.);
  Printf.printf
    "faults: %d action failures, %d retries, %d timeouts, %d node losses\n"
    failures retried timeouts node_losses;
  List.iter
    (fun (node, at, affected) ->
      Printf.printf "  node N%d crashed at %.0f s: %d vjobs resubmitted\n"
        node at (List.length affected))
    faulty.R.crashes;
  Printf.printf "repairs: %d salvaged, %d replanned  (verifier: %d/%d clean)\n"
    salvaged replanned
    (List.length faulty.R.repairs - List.length dirty)
    (List.length faulty.R.repairs);
  List.iter
    (fun rr ->
      Fmt.pr "  dirty %a plan at %.0f s:@." Entropy_fault.Repair.pp_source
        rr.S.source rr.S.at;
      List.iter
        (fun f -> Fmt.pr "    %a@." Entropy_analysis.Verifier.pp_finding f)
        (Entropy_analysis.Verifier.verify ~vjobs:rr.S.queue
           ~current:rr.S.before ~target:rr.S.target ~demand:rr.S.demand
           rr.S.plan))
    dirty;
  Printf.printf "recovery: %d/%d vjobs completed, final configuration %s\n"
    (List.length faulty.R.completions)
    (List.length vjobs)
    (if final_viable then "viable" else "NOT viable");
  (* flight attribution: where the inflation went, repair switches
     charged to recovery *)
  let analyses = Entropy_flight.Report.analyze_records flight_records in
  if analyses <> [] then
    Fmt.pr "flight:@.%a@." Entropy_flight.Report.pp_summary analyses;
  let journal_records =
    match journal_path with
    | Some path -> List.length (fst (Entropy_journal.Journal.load path))
    | None -> 0
  in
  if faulty.R.killed then
    Printf.printf
      "killed at %.0f s with %d/%d vjobs complete; %d journal records for \
       `entropyctl resume`\n"
      (Option.value kill_at ~default:0.)
      (List.length faulty.R.completions)
      (List.length vjobs) journal_records;
  Option.iter
    (fun path ->
      let open Entropy_obs.Json in
      write_json_file path
        (Obj
           [
             ("vms", Int vm_count);
             ("nodes", Int (Configuration.node_count config));
             ("seed", Int seed);
             ("fail_rate", Float fail_rate);
             ("killed", Bool faulty.R.killed);
             ("completed", Bool completed);
             ("final_viable", Bool final_viable);
             ("makespan_s", Float faulty.R.makespan);
             ("switches", Int (List.length faulty.R.switches));
             ("failures", Int failures);
             ("retries", Int retried);
             ("timeouts", Int timeouts);
             ("node_losses", Int node_losses);
             ("repairs_salvaged", Int salvaged);
             ("repairs_replanned", Int replanned);
             ("dirty_repairs", Int (List.length dirty));
             ("journal_records", Int journal_records);
             ( "journal",
               match journal_path with Some p -> String p | None -> Null );
             ("flight", Entropy_flight.Report.to_json analyses);
           ]))
    json;
  (* a killed run is supposed to be incomplete: the convergence checks
     move to the resume; a clean kill still requires clean repairs *)
  if faulty.R.killed then begin
    if dirty <> [] then exit 1
  end
  else if not (completed && final_viable && dirty = []) then exit 1

(* -- resume -------------------------------------------------------------------- *)

(* [f path], where a journal that cannot be read (missing, unreadable,
   or in another format) exits 2. *)
let journal_or_exit f path =
  try f path
  with Sys_error e ->
    Printf.eprintf "%s\n" e;
    exit 2

(* Records and torn-tail count of a journal file. *)
let load_journal_or_exit = journal_or_exit Entropy_journal.Journal.load

(* A journal continued after a crash, with its records and torn-tail
   count, from one decode of the file. *)
let reopen_journal_or_exit = journal_or_exit Entropy_journal.Journal.reopen

(* Pick up a crashed chaos run from its write-ahead journal: regenerate
   the same instance from (vms, nodes, seed), replay the journal,
   reconcile the in-flight switch against the journal-projected
   configuration, execute the resume plan (or the repair plan on
   divergence) and run the loop to completion. The resume plan is
   re-checked with [Verifier.verify_resume]: resume + executed prefix
   must be semantically the original switch. Exit 0 only when every
   vjob completes, the final configuration is viable and the verifier
   is clean. *)

let resume vms nodes seed fail_rate timeout_factor retries cp_timeout
    max_time journal_path json trace metrics =
  obs_setup trace metrics;
  let config, vjobs, programs = chaos_instance ~vms ~nodes ~seed in
  let vm_count = Configuration.vm_count config in
  let journal, (records, dropped_lines) = reopen_journal_or_exit journal_path in
  Printf.printf "resume: %d journal records from %s%s\n" (List.length records)
    journal_path
    (if dropped_lines = 0 then ""
     else Printf.sprintf " (%d torn lines dropped)" dropped_lines);
  (* flight view of the journal as found: what the interrupted switch
     was doing when the controller died *)
  let pre_crash = Entropy_flight.Report.analyze_records records in
  if pre_crash <> [] then
    Fmt.pr "pre-crash flight:@.%a@." Entropy_flight.Report.pp_summary pre_crash;
  let state = Entropy_journal.Recovery.replay records in
  (* same fault environment as the chaos run: probabilistic failures
     under the journaled injector seed (falling back to --seed) *)
  let injector_seed =
    match state with
    | Some st -> Option.value st.Entropy_journal.Recovery.seed ~default:seed
    | None -> seed
  in
  let injector =
    Entropy_fault.Injector.create ~seed:injector_seed
      [ Entropy_fault.Injector.Fail_rate { kind = None; rate = fail_rate } ]
  in
  let policy =
    Entropy_fault.Supervisor.make_policy ~timeout_factor ~max_retries:retries
      ()
  in
  let info, result =
    match
      Vsim.Runner.resume ~cp_timeout ~max_time ~injector ~policy ~journal
        ~records ~vjobs ~programs ()
    with
    | Some (info, result) -> (Some info, result)
    | None ->
      (* no switch had begun: nothing to reconcile, run from scratch *)
      Printf.printf "journal holds no in-flight switch: fresh run\n";
      ( None,
        Vsim.Runner.run_custom ~cp_timeout ~max_time ~injector ~policy
          ~journal ~config ~vjobs ~programs () )
  in
  let all_records = Entropy_journal.Journal.records journal in
  Entropy_journal.Journal.close journal;
  obs_write trace metrics;
  let module R = Vsim.Runner in
  let module Rec = Entropy_journal.Recovery in
  let findings =
    match info with
    | Some { Rec.state; reconciliation; repaired = false; _ } -> (
      match reconciliation.Rec.plan with
      | Some plan ->
        Entropy_analysis.Verifier.verify_resume ~source:state.Rec.source
          ~original:state.Rec.plan
          ~observed:(Rec.projected_config state)
          ~target:reconciliation.Rec.target
          ~frozen:reconciliation.Rec.frozen_vms ~demand:state.Rec.demand plan
      | None -> [])
    | Some { Rec.repaired = true; _ } | None ->
      (* the repair path re-targets the switch: original-plan
         equivalence is not expected, the repair verifier in [chaos]
         covers those plans *)
      []
  in
  (match info with
  | Some { Rec.state; reconciliation; repaired; _ } ->
    Printf.printf
      "reconciled switch %d: %d done, %d pending, %d frozen VMs%s\n"
      state.Rec.switch
      (List.length reconciliation.Rec.done_vms)
      (List.length reconciliation.Rec.pending_vms)
      (List.length reconciliation.Rec.frozen_vms)
      (if repaired then " (diverged: resumed via repair)" else "");
    if findings <> [] then
      Fmt.pr "resume verifier: %a@." Entropy_analysis.Verifier.pp_report
        findings
    else Printf.printf "resume verifier: clean\n"
  | None -> ());
  let completed =
    List.for_all
      (fun vj ->
        List.for_all
          (fun vm ->
            Configuration.state result.R.final_config vm
            = Configuration.Terminated)
          (Vjob.vms vj))
      vjobs
  in
  let final_viable =
    Configuration.is_viable result.R.final_config
      (Demand.uniform ~vm_count Vworkload.Program.compute_demand)
  in
  Printf.printf "resume: %d/%d vjobs completed, final configuration %s\n"
    (List.length result.R.completions)
    (List.length vjobs)
    (if final_viable then "viable" else "NOT viable");
  (* flight view of the whole episode: interrupted switch + everything
     the resumed run appended to the same journal *)
  let episode = Entropy_flight.Report.analyze_records all_records in
  if episode <> [] then
    Fmt.pr "flight:@.%a@." Entropy_flight.Report.pp_summary episode;
  Option.iter
    (fun path ->
      let open Entropy_obs.Json in
      write_json_file path
        (Obj
           [
             ("vms", Int vm_count);
             ("nodes", Int (Configuration.node_count config));
             ("seed", Int seed);
             ("journal", String journal_path);
             ("journal_records", Int (List.length records));
             ("dropped_lines", Int dropped_lines);
             ( "resumed_switch",
               match info with
               | Some i -> Int i.Rec.state.Rec.switch
               | None -> Null );
             ( "done_vms",
               Int
                 (match info with
                 | Some i -> List.length i.Rec.reconciliation.Rec.done_vms
                 | None -> 0) );
             ( "pending_vms",
               Int
                 (match info with
                 | Some i -> List.length i.Rec.reconciliation.Rec.pending_vms
                 | None -> 0) );
             ( "frozen_vms",
               Int
                 (match info with
                 | Some i -> List.length i.Rec.reconciliation.Rec.frozen_vms
                 | None -> 0) );
             ( "repaired",
               Bool
                 (match info with Some i -> i.Rec.repaired | None -> false) );
             ("verifier_findings", Int (List.length findings));
             ("completed", Bool completed);
             ("final_viable", Bool final_viable);
             ("makespan_s", Float result.R.makespan);
             ("flight", Entropy_flight.Report.to_json episode);
           ]))
    json;
  if not (completed && final_viable && findings = []) then exit 1

(* -- explain ------------------------------------------------------------------ *)

(* Post-hoc flight-recorder analysis of executed switches: reconstruct
   the causal timeline from a write-ahead journal (or from a fresh
   fault-free run of the generated Fig. 10-style instance when no
   journal is given), extract the critical path, decompose the makespan
   into exhaustive attribution buckets and compare against the planner's
   Table 1 / section 4.2 estimate. Exits non-zero when any analyzed
   switch fails the exactness invariants (buckets must sum to the
   makespan; a switch that executed actions must have a critical
   path). *)

let explain vms nodes seed cp_timeout max_time journal_path switch_sel top
    json gantt trace metrics =
  obs_setup trace metrics;
  let module Flight = Entropy_flight.Report in
  let records =
    match journal_path with
    | Some path ->
      let records, dropped = load_journal_or_exit path in
      Printf.printf "explain: %d journal records from %s%s\n"
        (List.length records) path
        (if dropped = 0 then ""
         else Printf.sprintf " (%d torn record(s) dropped)" dropped);
      records
    | None ->
      let config, vjobs, programs = chaos_instance ~vms ~nodes ~seed in
      Printf.printf
        "explain: fault-free run, %d VMs / %d nodes (seed %d), %d vjobs\n"
        (Configuration.vm_count config)
        (Configuration.node_count config)
        seed (List.length vjobs);
      let journal = Entropy_journal.Journal.mem () in
      ignore
        (Vsim.Runner.run_custom ~cp_timeout ~max_time ~journal ~config ~vjobs
           ~programs ());
      Entropy_journal.Journal.records journal
  in
  let analyses = Flight.analyze_records ~top_k:top records in
  let analyses =
    match switch_sel with
    | None -> analyses
    | Some id ->
      List.filter
        (fun (sw, _) -> sw.Entropy_journal.Recovery.switch = id)
        analyses
  in
  obs_write trace metrics;
  if analyses = [] then begin
    Printf.printf "no switches to explain%s\n"
      (match switch_sel with
      | Some id -> Printf.sprintf " (switch %d not in journal)" id
      | None -> "");
    exit 1
  end;
  List.iter (fun a -> Fmt.pr "%a@." Flight.pp a) analyses;
  if List.length analyses > 1 then Fmt.pr "%a@." Flight.pp_summary analyses;
  warn_dropped_spans ();
  Option.iter
    (fun path ->
      write_json_file path
        (Flight.to_json ~trace_dropped:(Entropy_obs.Trace.dropped ())
           analyses))
    json;
  Option.iter (fun path -> Flight.write_gantt path analyses) gantt;
  let bad = List.filter (fun a -> not (Flight.healthy a)) analyses in
  if bad <> [] then begin
    Printf.printf
      "explain: %d switch(es) failed attribution exactness checks\n"
      (List.length bad);
    exit 1
  end

(* -- daemon -------------------------------------------------------------------- *)

(* entropyd in the simulator: the overload-tolerant event-driven control
   plane of lib/daemon. [daemon run] cold-starts an episode of open
   arrivals under admission control, trigger coalescing and the
   degradation ladder; with [--kill-at] it dies mid-storm leaving only
   the write-ahead journal, and [daemon resume] picks the same episode
   up from that journal. *)

module Daemon = Entropy_daemon.Daemon

let daemon_report_out (report : Daemon.report) json trace metrics =
  Fmt.pr "%a@." Daemon.pp_report report;
  obs_write trace metrics;
  Option.iter (fun p -> write_json_file p (Daemon.to_json report)) json;
  if report.Daemon.killed then ()
    (* a killed run is supposed to be incomplete: the soak checks move
       to the resume *)
  else if
    not
      (report.Daemon.all_terminated && report.Daemon.final_viable
     && report.Daemon.queue_bounded && report.Daemon.degradation_bounded)
  then exit 1

let daemon_config subs nodes seed cap batch arrivals burst debounce fail_rate
    crashes deterministic kill_at max_time =
  {
    Daemon.default_config with
    seed;
    nodes;
    submissions = subs;
    base_rate = arrivals;
    burst_rate = burst;
    admission_cap = cap;
    admit_batch = batch;
    debounce_s = debounce;
    deterministic;
    fail_rate;
    crashes;
    kill_at;
    max_time;
  }

let daemon_run subs nodes seed cap batch arrivals burst debounce fail_rate
    crashes deterministic kill_at max_time journal_path json trace metrics =
  obs_setup trace metrics;
  let c =
    daemon_config subs nodes seed cap batch arrivals burst debounce fail_rate
      crashes deterministic kill_at max_time
  in
  let journal =
    Option.map
      (fun path ->
        (* a daemon run starts a fresh episode: truncate any stale journal *)
        (try Sys.remove path with Sys_error _ -> ());
        Entropy_journal.Journal.open_file path)
      journal_path
  in
  let report = Daemon.run ?journal c in
  Option.iter Entropy_journal.Journal.close journal;
  daemon_report_out report json trace metrics

let daemon_resume subs nodes seed cap batch arrivals burst debounce fail_rate
    crashes deterministic max_time journal_path json trace metrics =
  obs_setup trace metrics;
  let c =
    daemon_config subs nodes seed cap batch arrivals burst debounce fail_rate
      crashes deterministic None max_time
  in
  let journal, (records, dropped) = reopen_journal_or_exit journal_path in
  Printf.printf "daemon resume: %d journal records from %s%s\n"
    (List.length records) journal_path
    (if dropped > 0 then Printf.sprintf " (%d torn dropped)" dropped else "");
  let report = Daemon.resume ~journal ~records c in
  Entropy_journal.Journal.close journal;
  daemon_report_out report json trace metrics

(* -- cmdliner ---------------------------------------------------------------- *)

open Cmdliner

let file_arg index name =
  Arg.(required & pos index (some file) None & info [] ~docv:name)

let timeout_arg =
  Arg.(
    value & opt float 1.0
    & info [ "cp-timeout" ] ~doc:"CP solving timeout in seconds.")

(* chaos, resume and explain: a shorter CP budget than plan's *)
let sim_timeout_arg =
  Arg.(
    value & opt float 0.25
    & info [ "cp-timeout" ] ~doc:"CP solving timeout in seconds.")

let max_time_arg =
  Arg.(
    value & opt float 1_000_000.
    & info [ "max-time" ] ~docv:"S"
        ~doc:"Give up after this much simulated time.")

let fail_rate_arg =
  Arg.(
    value & opt float 0.1
    & info [ "fail-rate" ] ~docv:"P"
        ~doc:"Per-attempt action failure probability, in [0,1].")

let timeout_factor_arg =
  Arg.(
    value & opt float 3.0
    & info [ "timeout-factor" ] ~docv:"F"
        ~doc:"Supervisor timeout = F x expected action duration.")

let retries_arg =
  Arg.(
    value & opt int 1
    & info [ "retries" ] ~docv:"N"
        ~doc:"Supervised retries per action (exponential backoff).")

let ram_arg =
  Arg.(
    value & flag
    & info [ "ram" ] ~doc:"Prefer suspend-to-RAM when memory allows.")

let engine_arg =
  Arg.(
    value
    & opt (enum [ ("cp", `Cp); ("portfolio", `Portfolio) ]) `Cp
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Placement engine: $(b,cp) (the paper's CP branch & bound) or \
           $(b,portfolio) (large-neighbourhood search repaired by CP, then \
           CP branch & bound bounded by the incumbent, under one \
           deadline).")

let logs_term =
  let verbose =
    Arg.(
      value & flag_all
      & info [ "v"; "verbose" ]
          ~doc:"Increase log verbosity (info; twice for debug).")
  in
  let debug =
    Arg.(
      value
      & opt (list string) []
      & info [ "debug" ] ~docv:"SRC"
          ~doc:
            "Comma-separated log sources to set to debug level (e.g. \
             $(b,cp,sim) for entropy.cp and entropy.sim), independently of \
             $(b,-v).")
  in
  Term.(const (fun v d -> setup_logs (List.length v) d) $ verbose $ debug)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON (load it in Perfetto or \
           chrome://tracing) covering the run.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the metrics registry: Prometheus text format when FILE \
           ends in $(b,.prom), JSON otherwise.")

let status_cmd =
  Cmd.v
    (Cmd.info "status" ~doc:"Report loads, viability and rule violations")
    Term.(const (fun () p -> status p) $ logs_term $ file_arg 0 "CLUSTER")

let check_cmd =
  let cluster_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"CLUSTER"
          ~doc:
            "Cluster description to check; omitted, a Fig. 10-style \
             instance is generated from $(b,--vms)/$(b,--nodes)/$(b,--seed).")
  in
  let vms_arg =
    Arg.(
      value & opt int 54
      & info [ "vms" ] ~docv:"N"
          ~doc:"Number of VMs in the generated instance.")
  in
  let nodes_arg =
    Arg.(
      value & opt int 15
      & info [ "nodes" ] ~docv:"N" ~doc:"Number of nodes.")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED" ~doc:"Instance generator seed.")
  in
  let depth_arg =
    Arg.(
      value & opt int 8
      & info [ "depth" ] ~docv:"N"
          ~doc:
            "Branching depth of the bounded exploration: all interleavings \
             for the first $(i,N) steps, the canonical schedule beyond. \
             Ignored with $(b,--exhaustive).")
  in
  let max_states_arg =
    Arg.(
      value & opt int 200_000
      & info [ "max-states" ] ~docv:"N" ~doc:"Explored-state budget.")
  in
  let max_crash_arg =
    Arg.(
      value & opt int 4_000
      & info [ "max-crash-checks" ] ~docv:"N"
          ~doc:
            "Crash-recovery re-check budget (unbounded with \
             $(b,--exhaustive)).")
  in
  let max_violations_arg =
    Arg.(
      value & opt int 16
      & info [ "max-violations" ] ~docv:"N"
          ~doc:"Stop exploring after this many distinct violations.")
  in
  let exhaustive_arg =
    Arg.(
      value & flag
      & info [ "exhaustive" ]
          ~doc:
            "Explore the whole state space: no depth bound, no sleep-set \
             pruning, no crash budget, every torn-frame byte offset. Only \
             trace-equivalent duplicate states are skipped.")
  in
  let no_crash_arg =
    Arg.(
      value & flag
      & info [ "no-crash" ] ~doc:"Skip crash-state exploration.")
  in
  let no_torn_arg =
    Arg.(
      value & flag
      & info [ "no-torn" ] ~doc:"Skip torn-frame byte-cut checks.")
  in
  let sim_runs_arg =
    Arg.(
      value & opt int 8
      & info [ "sim-runs" ] ~docv:"N"
          ~doc:
            "Conformance runs of the real discrete-event executor under \
             enumerated tie-break schedules (0 disables).")
  in
  let invariant_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "invariant" ] ~docv:"NAME"
          ~doc:
            "Check only this invariant (repeatable): $(b,capacity), \
             $(b,lifecycle), $(b,precedence), $(b,write-ahead), \
             $(b,resume-equiv), $(b,cost-monotone), $(b,termination). \
             Default: all.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the machine-readable report to $(i,FILE).")
  in
  let seed_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "seed-file" ] ~docv:"FILE"
          ~doc:
            "Write the minimized counterexample witness to $(i,FILE) \
             (replay it with $(b,--replay)).")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a witness seed file against the derived plan instead \
             of exploring.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model-check the planned switch: explore executor interleavings \
          and journal crash states, checking capacity, lifecycle, \
          precedence, write-ahead, resume-equivalence, cost and \
          termination invariants")
    Term.(
      const (fun () c v n s d ms mc mv ex nc nt sr inv j sf rp ->
          model_check c v n s d ms mc mv ex nc nt sr inv j sf rp)
      $ logs_term $ cluster_arg $ vms_arg $ nodes_arg $ seed_arg $ depth_arg
      $ max_states_arg $ max_crash_arg $ max_violations_arg $ exhaustive_arg
      $ no_crash_arg $ no_torn_arg $ sim_runs_arg $ invariant_arg $ json_arg
      $ seed_file_arg $ replay_arg)

let plan_cmd =
  Cmd.v
    (Cmd.info "plan" ~doc:"Run one decision iteration and print the plan")
    Term.(
      const (fun () p t e r tr m -> plan p t e r tr m)
      $ logs_term $ file_arg 0 "CLUSTER" $ timeout_arg $ engine_arg $ ram_arg
      $ trace_arg $ metrics_arg)

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Lint the CP model behind a description and verify the heuristic \
          plan")
    Term.(const (fun () p -> lint p) $ logs_term $ file_arg 0 "CLUSTER")

let actions_cmd =
  Cmd.v
    (Cmd.info "actions" ~doc:"Plan the switch between two descriptions")
    Term.(
      const (fun () c t -> actions c t)
      $ logs_term $ file_arg 0 "CURRENT" $ file_arg 1 "TARGET")

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Run the control loop on the simulated cluster until every vjob \
          (with a program= field) completes")
    Term.(
      const (fun () p t r tr m -> simulate p t r tr m)
      $ logs_term $ file_arg 0 "CLUSTER" $ timeout_arg $ ram_arg $ trace_arg
      $ metrics_arg)

let profile_cmd =
  let vms_arg =
    Arg.(
      value & opt int 54
      & info [ "vms" ] ~docv:"N"
          ~doc:"Number of VMs in the generated instance.")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED" ~doc:"Instance generator seed.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the machine-readable profile (instance, plan, per-phase \
             timings, counters, trace drop count) to $(i,FILE).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Time one optimisation over a generated Figure 10-style instance \
          and print the per-phase table")
    Term.(
      const (fun () vms t e s js tr m -> profile vms t e s js tr m)
      $ logs_term $ vms_arg $ timeout_arg $ engine_arg $ seed_arg $ json_arg
      $ trace_arg $ metrics_arg)

let chaos_cmd =
  let vms_arg =
    Arg.(
      value & opt int 54
      & info [ "vms" ] ~docv:"N"
          ~doc:"Number of VMs in the generated instance.")
  in
  let nodes_arg =
    Arg.(
      value & opt int 15
      & info [ "nodes" ] ~docv:"N" ~doc:"Number of nodes.")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Seed for both the instance generator and the injector.")
  in
  let crash_arg =
    Arg.(
      value
      & opt_all (pair ~sep:'@' int float) []
      & info [ "crash" ] ~docv:"NODE@TIME"
          ~doc:
            "Crash node $(i,NODE) permanently at simulated time $(i,TIME) \
             seconds (repeatable).")
  in
  let kill_at_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "kill-at" ] ~docv:"S"
          ~doc:
            "Kill the controller at simulated time $(i,S): the run stops \
             dead mid-switch, leaving only the write-ahead journal behind \
             for $(b,entropyctl resume).")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Write the write-ahead switch journal to $(i,FILE) (truncated \
             first).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write a machine-readable run report to $(i,FILE).")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the simulated control loop under fault injection and report \
          retries, repairs and makespan inflation vs the fault-free run")
    Term.(
      const (fun () v n s fr cr tf re t mt ka jp js tr m ->
          chaos v n s fr cr tf re t mt ka jp js tr m)
      $ logs_term $ vms_arg $ nodes_arg $ seed_arg $ fail_rate_arg
      $ crash_arg $ timeout_factor_arg $ retries_arg $ sim_timeout_arg
      $ max_time_arg $ kill_at_arg $ journal_arg $ json_arg $ trace_arg
      $ metrics_arg)

let resume_cmd =
  let vms_arg =
    Arg.(
      value & opt int 54
      & info [ "vms" ] ~docv:"N"
          ~doc:
            "Number of VMs in the generated instance (must match the \
             killed run).")
  in
  let nodes_arg =
    Arg.(
      value & opt int 15
      & info [ "nodes" ] ~docv:"N" ~doc:"Number of nodes.")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Instance generator seed; the injector seed is recovered from \
             the journal when present.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write a machine-readable resume report to $(i,FILE).")
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Recover a killed chaos run from its write-ahead journal: replay, \
          reconcile the in-flight switch, resume idempotently and run to \
          completion")
    Term.(
      const (fun () v n s fr tf re t mt jp js tr m ->
          resume v n s fr tf re t mt jp js tr m)
      $ logs_term $ vms_arg $ nodes_arg $ seed_arg $ fail_rate_arg
      $ timeout_factor_arg $ retries_arg $ sim_timeout_arg $ max_time_arg
      $ file_arg 0 "JOURNAL" $ json_arg $ trace_arg $ metrics_arg)

let explain_cmd =
  let vms_arg =
    Arg.(
      value & opt int 54
      & info [ "vms" ] ~docv:"N"
          ~doc:"Number of VMs in the generated instance (no --journal).")
  in
  let nodes_arg =
    Arg.(
      value & opt int 15
      & info [ "nodes" ] ~docv:"N" ~doc:"Number of nodes (no --journal).")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Instance generator seed (no --journal).")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Analyze the switches recorded in this write-ahead journal \
             instead of running the generated instance.")
  in
  let switch_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "switch" ] ~docv:"N"
          ~doc:"Only explain the switch with this journal id.")
  in
  let top_arg =
    Arg.(
      value & opt int 3
      & info [ "top" ] ~docv:"K"
          ~doc:"What-if estimates for the top K critical actions.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the machine-readable analysis to $(i,FILE).")
  in
  let gantt_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "gantt" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event gantt view (one track per node, \
             barrier and critical-path markers) to $(i,FILE).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Reconstruct executed switches from a write-ahead journal (or a \
          fresh run), extract the critical path and attribute every second \
          of the makespan to work, contention, barriers, dependencies, \
          retries or recovery")
    Term.(
      const (fun () v n s t mt jp sw top js g tr m ->
          explain v n s t mt jp sw top js g tr m)
      $ logs_term $ vms_arg $ nodes_arg $ seed_arg $ sim_timeout_arg
      $ max_time_arg $ journal_arg $ switch_arg $ top_arg $ json_arg
      $ gantt_arg $ trace_arg $ metrics_arg)

(* -- journal ------------------------------------------------------------------- *)

(* Debug export: decode a write-ahead journal's binary frames and print
   each record as one JSON line on stdout. Torn-tail diagnostics go to
   stderr so the output stays pipeable; an unreadable file (or a
   pre-binary JSON-lines journal) exits 2. *)

let journal_dump journal_path strict =
  let records, dropped = load_journal_or_exit journal_path in
  List.iter
    (fun r ->
      print_endline
        (Entropy_obs.Json.to_string (Entropy_journal.Record.to_json r)))
    records;
  if dropped > 0 then begin
    Printf.eprintf "journal dump: %d torn record(s) dropped at tail%s\n"
      dropped
    (if strict then " (failing: --strict)" else "");
    if strict then exit 1
  end

let journal_cmd =
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit non-zero when a torn tail was detected and dropped.")
  in
  let dump_cmd =
    Cmd.v
      (Cmd.info "dump"
         ~doc:
           "Decode a write-ahead journal (binary frames) and print each \
            record as one JSON line on stdout")
      Term.(
        const (fun () p s -> journal_dump p s)
        $ logs_term $ file_arg 0 "JOURNAL" $ strict_arg)
  in
  Cmd.group
    (Cmd.info "journal" ~doc:"Inspect write-ahead switch journals")
    [ dump_cmd ]

let daemon_cmd =
  let subs_arg =
    Arg.(
      value & opt int 200
      & info [ "subs" ] ~docv:"N"
          ~doc:"Open-arrival vjob submissions to generate.")
  in
  let nodes_arg =
    Arg.(
      value & opt int 24
      & info [ "nodes" ] ~docv:"N" ~doc:"Number of nodes.")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Seed for the instance, the arrival schedule, the crash \
             script and the fault injector.")
  in
  let cap_arg =
    Arg.(
      value & opt int 64
      & info [ "cap" ] ~docv:"N"
          ~doc:
            "Admission-queue bound: submissions past it are rejected, \
             never queued.")
  in
  let batch_arg =
    Arg.(
      value & opt int 8
      & info [ "batch" ] ~docv:"N" ~doc:"Admissions per decision round.")
  in
  let arrivals_arg =
    Arg.(
      value
      & opt float (1. /. 60.)
      & info [ "arrivals" ] ~docv:"RATE"
          ~doc:"Calm-phase arrival rate, submissions per second.")
  in
  let burst_arg =
    Arg.(
      value & opt float 0.25
      & info [ "burst" ] ~docv:"RATE"
          ~doc:"Burst-phase arrival rate, submissions per second.")
  in
  let debounce_arg =
    Arg.(
      value & opt float 5.
      & info [ "debounce" ] ~docv:"S"
          ~doc:"Trigger coalescing window in simulated seconds.")
  in
  let crashes_arg =
    Arg.(
      value & opt int 0
      & info [ "crashes" ] ~docv:"N"
          ~doc:
            "Scripted permanent node crashes spread over the arrival \
             span (seeded).")
  in
  let deterministic_arg =
    Arg.(
      value & flag
      & info [ "deterministic" ]
          ~doc:
            "Replace the wall-clock-bounded solver portfolio with the \
             FFD incumbent at every ladder rung: the whole episode \
             becomes a pure function of $(b,--seed).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write a machine-readable soak report to $(i,FILE).")
  in
  let run_cmd =
    let kill_at_arg =
      Arg.(
        value
        & opt (some float) None
        & info [ "kill-at" ] ~docv:"S"
            ~doc:
              "Kill the daemon at simulated time $(i,S), leaving only \
               the write-ahead journal for $(b,daemon resume).")
    in
    let journal_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "journal" ] ~docv:"FILE"
            ~doc:
              "Write the write-ahead journal (switches, admissions, \
               ladder transitions) to $(i,FILE), truncated first.")
    in
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Cold-start one daemon episode: open-arrival submissions \
            under admission control, trigger coalescing and the \
            graceful-degradation ladder")
      Term.(
        const (fun () su n se c b a bu d fr cr det ka mt jp js tr m ->
            daemon_run su n se c b a bu d fr cr det ka mt jp js tr m)
        $ logs_term $ subs_arg $ nodes_arg $ seed_arg $ cap_arg $ batch_arg
        $ arrivals_arg $ burst_arg $ debounce_arg $ fail_rate_arg
        $ crashes_arg $ deterministic_arg $ kill_at_arg $ max_time_arg
        $ journal_arg $ json_arg $ trace_arg $ metrics_arg)
  in
  let resume_cmd =
    Cmd.v
      (Cmd.info "resume"
         ~doc:
           "Pick a killed daemon up from its journal: settled admissions \
            and ladder rung replay, the in-flight switch reconciles, \
            missed arrivals re-submit (flags must match the killed run)")
      Term.(
        const (fun () su n se c b a bu d fr cr det mt jp js tr m ->
            daemon_resume su n se c b a bu d fr cr det mt jp js tr m)
        $ logs_term $ subs_arg $ nodes_arg $ seed_arg $ cap_arg $ batch_arg
        $ arrivals_arg $ burst_arg $ debounce_arg $ fail_rate_arg
        $ crashes_arg $ deterministic_arg $ max_time_arg
        $ file_arg 0 "JOURNAL" $ json_arg $ trace_arg $ metrics_arg)
  in
  Cmd.group
    (Cmd.info "daemon"
       ~doc:
         "The online control-plane daemon: overload-tolerant event loop \
          with admission control, backpressure and graceful degradation")
    [ run_cmd; resume_cmd ]

let () =
  let info =
    Cmd.info "entropyctl"
      ~doc:"Plan cluster-wide context switches over cluster descriptions"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            status_cmd; check_cmd; plan_cmd; lint_cmd; actions_cmd;
            simulate_cmd; profile_cmd; chaos_cmd; resume_cmd; explain_cmd;
            journal_cmd; daemon_cmd;
          ]))

(* End-to-end simulated runs of the Entropy control loop (the paper's
   section 5.2 experiment): a cluster, a set of vjobs submitted at time
   zero running NGB-like workloads, the monitoring collector, the
   decision module and the plan executor, wired on the discrete-event
   engine.

   With a fault injector, the run becomes a chaos experiment: scripted
   node crashes fire on the engine, actions run supervised (timeouts,
   retries), and a switch that terminally loses actions aborts at the
   pool boundary and goes through the repair chain — salvage the
   surviving plan or FFD-replan — immediately, instead of waiting for
   the next loop iteration. *)

open Entropy_core
module Trace = Vworkload.Trace
module Obs = Entropy_obs.Obs
module Injector = Entropy_fault.Injector
module Recovery = Entropy_journal.Recovery

type result = {
  makespan : float;  (* completion time of the last vjob *)
  completions : (Vjob.t * float) list;
  switches : Executor.record list;
  repairs : Session.repair list;
  crashes : (Node.id * float * Vjob.id list) list;
  series : Metrics.point list;
  iterations : int;
  final_config : Configuration.t;
  killed : bool;  (* [kill_at] fired with vjobs still incomplete *)
}

(* Build the initial configuration (+ vjobs + programs) from traces.
   [arrival_spacing] staggers the submissions: vjob j arrives at
   j * spacing seconds (0 = the paper's simultaneous submission). *)
let setup ?(arrival_spacing = 0.) ~nodes ~traces () =
  let vm_specs =
    List.concat_map
      (fun t ->
        List.map2 (fun m p -> (t, m, p)) t.Trace.memories t.Trace.programs)
      traces
  in
  let vms =
    Array.of_list
      (List.mapi
         (fun i (t, m, _) ->
           Vm.make ~id:i
             ~name:(Printf.sprintf "%s-vm%02d" t.Trace.name i)
             ~memory_mb:m)
         vm_specs)
  in
  let programs = Array.of_list (List.map (fun (_, _, p) -> p) vm_specs) in
  let config = Configuration.make ~nodes ~vms in
  let vjobs =
    let next = ref 0 in
    List.mapi
      (fun j t ->
        let ids = List.init t.Trace.vm_count (fun k -> !next + k) in
        next := !next + t.Trace.vm_count;
        Vjob.make ~id:j ~name:t.Trace.name ~vms:ids
          ~submit_time:(float_of_int j *. Float.max 0.001 arrival_spacing)
          ())
      traces
  in
  (config, vjobs, fun vm_id -> programs.(vm_id))

(* The control loop re-decides every [period] seconds and polls the
   monitors every [poll_period] (metrics sample every 30 s on their
   own); a degraded switch is chased by at most [max_repairs] repair
   plans. *)
let period = 30.
let poll_period = 5.
let max_repairs = 4

(* Run the control loop over an arbitrary initial configuration (VMs may
   already be running/sleeping). [initial], set only by [resume],
   executes a recovery-derived (target, plan) before the first
   decision. *)
let run_loop ?(cp_timeout = 1.0) ?(max_time = 1_000_000.) ?decision
    ?injector ?policy ?journal ?kill_at ?initial ~config ~vjobs ~programs () =
  let engine = Engine.create () in
  let cluster = Cluster.create ~engine ~config ~vjobs ~programs () in
  let collector =
    Vmonitor.Collector.create (fun () ->
        (Engine.now engine, Cluster.cpu_readings cluster))
  in
  let decision =
    match decision with
    | Some d -> d
    | None -> Decision.consolidation ~cp_timeout ()
  in
  let metrics = Metrics.start cluster in
  let switches = ref [] in
  let repairs = ref [] in
  let crashes = ref [] in
  let iterations = ref 0 in
  let done_flag = ref false in
  (* periodic monitoring polls, Ganglia style *)
  let rec poll_loop () =
    if not !done_flag then begin
      Vmonitor.Collector.poll collector;
      ignore (Engine.schedule_after engine ~delay:poll_period poll_loop)
    end
  in
  poll_loop ();
  let live_queue () =
    let config = Cluster.config cluster in
    let now = Engine.now engine in
    List.filter
      (fun vj ->
        Vjob.submit_time vj <= now
        && not (Configuration.vjob_terminated config vj))
      vjobs
  in
  (* scripted node crashes fire on the engine, whatever the loop is
     doing; the executor notices in-flight actions touching the dead
     node, the next (re)plan sees the reset vjobs and shrunk capacity *)
  (match injector with
  | None -> ()
  | Some inj ->
    List.iter
      (fun (node, at_s) ->
        ignore
          (Engine.schedule engine ~at:at_s (fun () ->
               if Cluster.node_alive cluster node then begin
                 let affected = Cluster.crash_node cluster node in
                 crashes := (node, Engine.now engine, affected) :: !crashes
               end)))
      (Injector.node_crashes inj));
  let session =
    Session.create ~cluster ~collector ~journal ~injector ~policy ~max_repairs
      ~queue:live_queue
      ~on_switch:(fun r -> switches := r :: !switches)
      ~on_repair:(fun r -> repairs := r :: !repairs)
  in
  let rec iterate () =
    let config = Cluster.config cluster in
    let queue = live_queue () in
    if List.for_all (Configuration.vjob_terminated config) vjobs then begin
      done_flag := true;
      Metrics.stop metrics
    end
    else if queue = [] then
      (* nothing submitted yet: wait for the next arrivals *)
      next_period ()
    else begin
      incr iterations;
      Vmonitor.Collector.poll collector;
      let demand = Vmonitor.Collector.demand collector in
      let finished =
        List.filter_map
          (fun vj ->
            if Cluster.completed cluster vj then Some (Vjob.id vj) else None)
          queue
      in
      let obs = { Decision.config; demand; queue; finished } in
      let result =
        (* skip span construction entirely when tracing is off: this is
           the per-iteration hot path of the control loop *)
        if !Obs.enabled then
          Obs.span ~cat:"loop" ~name:"loop.decide" (fun () ->
              decision.Decision.decide obs)
        else decision.Decision.decide obs
      in
      (* however the switch settles, the periodic loop takes over *)
      Session.decided session obs result ~on_settled:(fun _ -> next_period ())
    end
  and next_period () =
    ignore (Engine.schedule_after engine ~delay:period iterate)
  in
  (match initial with
  | Some (target, plan) when not (Plan.is_empty plan) ->
    (* the resume path: execute a recovery-derived plan first, then fall
       back into the periodic loop *)
    ignore
      (Engine.schedule_after engine ~delay:0.5 (fun () ->
           Vmonitor.Collector.poll collector;
           let demand = Vmonitor.Collector.demand collector in
           Session.execute session ~demand ~target plan ~on_settled:(fun _ ->
               next_period ())))
  | Some _ | None -> ignore (Engine.schedule_after engine ~delay:0.5 iterate));
  let horizon =
    match kill_at with Some k -> Float.min k max_time | None -> max_time
  in
  Engine.run ~until:horizon engine;
  let completions =
    List.filter_map
      (fun (id, time) ->
        List.find_opt (fun vj -> Vjob.id vj = id) vjobs
        |> Option.map (fun vj -> (vj, time)))
      (Cluster.completions cluster)
  in
  let makespan =
    List.fold_left (fun acc (_, t) -> Float.max acc t) 0. completions
  in
  let final_config = Cluster.config cluster in
  let killed =
    kill_at <> None
    && not (List.for_all (Configuration.vjob_terminated final_config) vjobs)
  in
  {
    makespan;
    completions;
    switches = List.rev !switches;
    repairs = List.rev !repairs;
    crashes = List.rev !crashes;
    series = Metrics.points metrics;
    iterations = !iterations;
    final_config;
    killed;
  }

let run_custom = run_loop ?initial:None

let run_entropy ?cp_timeout ?max_time ?decision ?injector ?policy
    ?arrival_spacing ?journal ?kill_at ~nodes ~traces () =
  let config, vjobs, programs = setup ?arrival_spacing ~nodes ~traces () in
  run_custom ?cp_timeout ?max_time ?decision ?injector ?policy ?journal
    ?kill_at ~config ~vjobs ~programs ()

(* -- crash recovery ----------------------------------------------------------- *)

let resume ?cp_timeout ?max_time ?decision ?injector ?policy ?journal
    ?kill_at ~records ~vjobs ~programs () =
  Recovery.replay records
  |> Option.map (fun state ->
         (* the simulated cluster is where the journal says it was *)
         let observed = Recovery.projected_config state in
         let r = Recovery.resume_plan ~vjobs ~observed state in
         ( r,
           run_loop ?cp_timeout ?max_time ?decision ?injector ?policy
             ?journal ?kill_at
             ~initial:(r.Recovery.target, r.Recovery.plan) ~config:observed
             ~vjobs ~programs () ))

let mean_switch_duration result =
  match result.switches with
  | [] -> 0.
  | s ->
    List.fold_left (fun acc r -> acc +. Executor.duration r) 0. s
    /. float_of_int (List.length s)

(* End-to-end simulated runs of the Entropy control loop (the paper's
   section 5.2 experiment): a set of vjobs submitted at time zero
   running NGB-like workloads, paced by a 30 s timer over the session's
   loop (cluster, monitoring, decision, execution).

   With a fault injector, the run becomes a chaos experiment: scripted
   node crashes fire on the engine, actions run supervised (timeouts,
   retries), and a switch that terminally loses actions aborts at the
   pool boundary and goes through the repair chain — salvage the
   surviving plan or FFD-replan — immediately, instead of waiting for
   the next loop iteration. *)

open Entropy_core
module Trace = Vworkload.Trace
module Injector = Entropy_fault.Injector

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

(* The periodic pacing of the session's loop: re-decide every [period]
   seconds over the submitted, unterminated vjobs. [resume], set only
   by {!resume}, runs a recovery-derived plan first. *)
let period = 30.

let run_periodic ?(cp_timeout = 1.0) ?(max_time = 1_000_000.) ?decision
    ?injector ?policy ?journal ?kill_at ~resume ~config ~vjobs ~programs () =
  let decision =
    match decision with
    | Some d -> d
    | None -> Decision.consolidation ~cp_timeout ()
  in
  let crashes = ref [] in
  let iterations = ref 0 in
  let metrics = ref None in
  let live_queue s =
    let config = Session.config s in
    let now = Session.now s in
    List.filter
      (fun vj ->
        Vjob.submit_time vj <= now
        && not (Configuration.vjob_terminated config vj))
      vjobs
  in
  let pace s =
    let m = Metrics.start (Session.cluster s) in
    metrics := Some m;
    let all_terminated () =
      List.for_all (Configuration.vjob_terminated (Session.config s)) vjobs
    in
    let rec iterate () =
      if all_terminated () then begin
        Session.finish s;
        Metrics.stop m
      end
      else if live_queue s = [] then
        (* nothing submitted yet: wait for the next arrivals *)
        next_period ()
      else begin
        incr iterations;
        (* however the switch settles, the next period takes over *)
        Session.round s ~cat:"loop" ~name:"loop.decide" ~args:[] decision
          ~on_settled:(fun _ -> next_period ())
      end
    and next_period () =
      ignore (Engine.schedule_after (Session.engine s) ~delay:period iterate)
    in
    {
      Session.start =
        (fun ~resumed ->
          if not resumed then
            ignore
              (Engine.schedule_after (Session.engine s) ~delay:0.5 iterate));
      on_settled = (fun _ -> next_period ());
      on_poll = ignore;
      on_crash =
        (fun node affected ->
          crashes := (node, Session.now s, affected) :: !crashes);
      complete = all_terminated;
    }
  in
  let o =
    Session.loop ~config ~vjobs ~programs ~journal ~injector ~policy
      ~queue:live_queue
      ~crashes:(Option.fold ~none:[] ~some:Injector.node_crashes injector)
      ~resume ~kill_at ~max_time pace
  in
  {
    makespan = o.Session.makespan;
    completions = o.Session.completions;
    switches = o.Session.switches;
    repairs = o.Session.repairs;
    crashes = List.rev !crashes;
    series = Metrics.points (Option.get !metrics);
    iterations = !iterations;
    final_config = o.Session.final_config;
    killed = o.Session.killed;
  }

let run_custom = run_periodic ~resume:None

let run_entropy ?cp_timeout ?max_time ?decision ?injector ?policy
    ?arrival_spacing ?journal ?kill_at ~nodes ~traces () =
  let config, vjobs, programs = setup ?arrival_spacing ~nodes ~traces () in
  run_custom ?cp_timeout ?max_time ?decision ?injector ?policy ?journal
    ?kill_at ~config ~vjobs ~programs ()

let resume ?cp_timeout ?max_time ?decision ?injector ?policy ?journal
    ?kill_at ~records ~vjobs ~programs () =
  Session.recover ~vjobs records
  |> Option.map (fun (config, r) ->
         ( r,
           run_periodic ?cp_timeout ?max_time ?decision ?injector ?policy
             ?journal ?kill_at ~resume:(Some r) ~config ~vjobs ~programs () ))

let mean_switch_duration result =
  match result.switches with
  | [] -> 0.
  | s ->
    List.fold_left (fun acc r -> acc +. Executor.duration r) 0. s
    /. float_of_int (List.length s)

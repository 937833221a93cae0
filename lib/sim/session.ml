(* The paper's Fig. 4 loop, written once for its periodic and
   event-driven pacings. A kill anywhere inside a switch's write-ahead
   bracket leaves a journal that replays to the in-flight state. *)

(* capture the simulator's own log source before [open Entropy_core]
   shadows it with the core's *)
module Sim_log = Log

open Entropy_core
module Injector = Entropy_fault.Injector
module Repair = Entropy_fault.Repair
module Journal = Entropy_journal.Journal
module Jrecord = Entropy_journal.Record
module Collector = Vmonitor.Collector
module Recovery = Entropy_journal.Recovery
module Obs = Entropy_obs.Obs

type repair = {
  at : float;
  switch : int;
  source : [ `Salvaged | `Replanned ];
  before : Configuration.t;
  target : Configuration.t;
  demand : Demand.t;
  queue : Vjob.t list;
  plan : Plan.t;
}

type settled = Clean | Nothing_to_repair | Exhausted

type t = {
  cluster : Cluster.t;
  collector : Collector.t;
  journal : Journal.t option;
  injector : Injector.t option;
  policy : Entropy_fault.Supervisor.policy option;
  budget : int;  (* repairs one degraded switch may chase *)
  queue : t -> Vjob.t list;
  mutable switches : Executor.record list;  (* newest first *)
  mutable repairs : repair list;  (* newest first *)
  mutable finished : bool;
}

let max_repairs = 4  (* repair plans one degraded switch may chase *)
let poll_period = 5.  (* seconds between monitor polls *)

let engine t = Cluster.engine t.cluster
let cluster t = t.cluster
let config t = Cluster.config t.cluster
let now t = Engine.now (engine t)
let finish t = t.finished <- true
let finished t = t.finished

let next_switch t =
  match t.journal with Some j -> Journal.next_switch j | None -> 0

(* run a plan as one switch, the [depth]-th of its repair chain *)
let rec execute t ~depth ~demand ~target plan ~on_settled =
  let sw = next_switch t in
  Option.iter
    (fun j ->
      Journal.append j
        (Jrecord.Switch_begin
           {
             switch = sw;
             at_s = now t;
             source = Cluster.config t.cluster;
             target;
             plan;
             demand;
             seed = Option.map Injector.seed t.injector;
           }))
    t.journal;
  let on_done (r : Executor.record) =
    Option.iter
      (fun j ->
        Journal.append j
          (Jrecord.Switch_end
             { switch = sw; at_s = now t; aborted = r.Executor.aborted }))
      t.journal;
    t.switches <- r :: t.switches;
    if r.Executor.failed = 0 then on_settled Clean
    else if depth < t.budget then chase t ~depth ~target r ~on_settled
    else begin
      Sim_log.warn (fun m ->
          m "switch %d still degraded after %d repairs (%d failed VMs)" sw
            depth r.Executor.failed);
      on_settled Exhausted
    end
  in
  Executor.execute ?injector:t.injector ?policy:t.policy
    ~abort_on_failure:(Option.is_some t.injector)
    ?emit:(Option.map Journal.append t.journal) ~switch:sw t.cluster plan
    ~on_done

and chase t ~depth ~target (r : Executor.record) ~on_settled =
  Collector.poll t.collector;
  let before = Cluster.config t.cluster in
  let demand = Collector.demand t.collector in
  let queue = t.queue t in
  match
    Repair.repair ~vjobs:queue ~current:before ~target ~demand ~queue
      ~failed_vms:r.Executor.failed_vms ~lost_nodes:r.Executor.lost_nodes ()
  with
  | Some o ->
    Sim_log.info (fun m ->
        m "switch degraded at %.0fs (%d failed, %d node-losses): %a plan, \
           %d actions"
          (now t) r.Executor.failed r.Executor.node_losses Repair.pp_source
          o.Repair.source
          (Plan.action_count o.Repair.plan));
    t.repairs <-
      {
        at = now t;
        (* the id the chased switch below journals under *)
        switch = next_switch t;
        source = o.Repair.source;
        before;
        target = o.Repair.target;
        demand;
        queue;
        plan = o.Repair.plan;
      }
      :: t.repairs;
    execute t ~depth:(depth + 1) ~demand ~target:o.Repair.target
      o.Repair.plan ~on_settled
  | None -> on_settled Nothing_to_repair

let decided t (obs : Decision.observation) (result : Optimizer.result)
    ~on_settled =
  let plan = result.Optimizer.plan and target = result.Optimizer.target in
  if not (Plan.is_empty plan) then
    execute t ~depth:0 ~demand:obs.Decision.demand ~target plan ~on_settled
  else begin
    (* every current/target difference that derives no action is pure
       bookkeeping: commit it directly or the vjob never reaches
       Terminated — there is no action left that ever would *)
    if not (Configuration.equal obs.Decision.config target) then begin
      Sim_log.debug (fun m ->
          m "empty plan with bookkeeping-only target: committing directly \
             (finished [%a])"
            Fmt.(list ~sep:sp int)
            obs.Decision.finished);
      Cluster.set_config t.cluster target
    end;
    on_settled Clean
  end

(* -- the loop around a switch ---------------------------------------------- *)

let round t ~cat ~name ~args (decision : Decision.t) ~on_settled =
  if not t.finished then begin
    Collector.poll t.collector;
    let demand = Collector.demand t.collector in
    match t.queue t with
    | [] -> on_settled Clean
    | queue ->
      let finished =
        List.filter_map
          (fun vj ->
            if Cluster.completed t.cluster vj then Some (Vjob.id vj) else None)
          queue
      in
      let obs = { Decision.config = config t; demand; queue; finished } in
      let result =
        (* skip span construction entirely when tracing is off: this is
           the per-round hot path of the loop *)
        if !Obs.enabled then
          Obs.span ~cat ~name ~args (fun () -> decision.Decision.decide obs)
        else decision.Decision.decide obs
      in
      decided t obs result ~on_settled
  end

let recover ~vjobs records =
  Recovery.replay records
  |> Option.map (fun state ->
         (* the simulated cluster is where the journal says it was *)
         let observed = Recovery.projected_config state in
         (observed, Recovery.resume_plan ~vjobs ~observed state))

type pacing = {
  start : resumed:bool -> unit;
  on_settled : settled -> unit;
  on_poll : unit -> unit;
  on_crash : Node.id -> Vjob.id list -> unit;
  complete : unit -> bool;
}

type outcome = {
  switches : Executor.record list;
  repairs : repair list;
  completions : (Vjob.t * float) list;
  makespan : float;
  final_config : Configuration.t;
  killed : bool;
}

let loop ~config ~vjobs ~programs ~journal ~injector ~policy ~queue
    ~crashes ~resume ~kill_at ~max_time pace =
  let engine = Engine.create () in
  let cluster = Cluster.create ~engine ~config ~vjobs ~programs () in
  let t =
    {
      cluster;
      collector =
        Collector.create (fun () ->
            (Engine.now engine, Cluster.cpu_readings cluster));
      journal;
      injector;
      policy;
      (* unsupervised actions never abort a switch: nothing to chase *)
      budget = (if Option.is_some injector then max_repairs else 0);
      queue;
      switches = [];
      repairs = [];
      finished = false;
    }
  in
  let p = pace t in
  (* Ganglia-style monitoring polls *)
  let rec poll () =
    if not t.finished then begin
      Collector.poll t.collector;
      p.on_poll ();
      ignore (Engine.schedule_after engine ~delay:poll_period poll)
    end
  in
  poll ();
  (* scripted node crashes fire on the engine, whatever the loop is
     doing; the executor notices in-flight actions touching the dead
     node, the next (re)plan sees the reset vjobs and shrunk capacity *)
  List.iter
    (fun (node, at) ->
      ignore
        (Engine.schedule engine ~at (fun () ->
             if (not t.finished) && Cluster.node_alive t.cluster node then
               p.on_crash node (Cluster.crash_node t.cluster node))))
    crashes;
  let resumed =
    match resume with
    | Some { Recovery.state; target; plan; _ } when not (Plan.is_empty plan) ->
      ignore
        (Engine.schedule engine ~at:0.5 (fun () ->
             (* the poll feeds the collector's window; the switch journals
                the demand its plan was built against *)
             Collector.poll t.collector;
             execute t ~depth:0 ~demand:state.Recovery.demand ~target plan
               ~on_settled:p.on_settled));
      true
    | Some _ | None -> false
  in
  p.start ~resumed;
  Engine.run engine
    ~until:(Option.fold ~none:max_time ~some:(Float.min max_time) kill_at);
  let completions =
    (* the first vjob of each id, as a scan of [vjobs] would find it *)
    let by_id = Hashtbl.create (List.length vjobs) in
    List.iter
      (fun vj ->
        if not (Hashtbl.mem by_id (Vjob.id vj)) then
          Hashtbl.add by_id (Vjob.id vj) vj)
      vjobs;
    List.map
      (fun (id, time) -> (Hashtbl.find by_id id, time))
      (Cluster.completions t.cluster)
  in
  {
    switches = List.rev t.switches;
    repairs = List.rev t.repairs;
    completions;
    makespan =
      List.fold_left (fun acc (_, time) -> Float.max acc time) 0. completions;
    final_config = Cluster.config t.cluster;
    killed = kill_at <> None && not (p.complete ());
  }

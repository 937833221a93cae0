(* One cluster-wide context switch, from a decision's result to a
   settled cluster: the execute half of the paper's Fig. 4 loop, shared
   by the periodic runner and the event-driven daemon.

   An empty plan can still carry state (a finished vjob's image to
   discard, a waiting VM to cancel): it is committed directly. A
   non-empty plan runs as one switch bracketed by write-ahead journal
   records — Switch_begin goes durable before the first action starts,
   Switch_end only after the executor reports back, so a kill anywhere
   in between leaves a journal that replays to the in-flight state. With
   a fault injector, actions run supervised, a switch that terminally
   loses actions aborts at the pool boundary, and it is chased by at
   most [max_repairs] immediate repair plans — salvage the surviving
   plan or FFD-replan — before the caller's loop takes over again. *)

(* capture the simulator's own log source before [open Entropy_core]
   shadows it with the core's *)
module Sim_log = Log

open Entropy_core
module Injector = Entropy_fault.Injector
module Repair = Entropy_fault.Repair
module Journal = Entropy_journal.Journal
module Jrecord = Entropy_journal.Record
module Collector = Vmonitor.Collector

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
  emit : (Jrecord.t -> unit) option;
  injector : Injector.t option;
  policy : Entropy_fault.Supervisor.policy option;
  budget : int;  (* repairs one degraded switch may chase *)
  queue : unit -> Vjob.t list;
  on_switch : Executor.record -> unit;
  on_repair : repair -> unit;
}

let create ~cluster ~collector ~journal ~injector ~policy ~max_repairs
    ~queue ~on_switch ~on_repair =
  {
    cluster;
    collector;
    journal;
    emit = Option.map (fun j r -> Journal.append j r) journal;
    injector;
    policy;
    (* unsupervised actions never abort a switch: nothing to chase *)
    budget = (if Option.is_some injector then max_repairs else 0);
    queue;
    on_switch;
    on_repair;
  }

let now t = Engine.now (Cluster.engine t.cluster)

let next_switch t =
  match t.journal with Some j -> Journal.next_switch j | None -> 0

let rec execute_at t ~depth ~demand ~target plan ~on_settled =
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
    t.on_switch r;
    if r.Executor.failed = 0 then on_settled Clean
    else if depth < t.budget then chase t ~depth ~target r ~on_settled
    else begin
      Sim_log.warn (fun m ->
          m "switch %d still degraded after %d repairs (%d failed VMs)" sw
            depth r.Executor.failed);
      on_settled Exhausted
    end
  in
  let abort_on_failure = Option.is_some t.injector in
  Executor.execute ?injector:t.injector ?policy:t.policy ~abort_on_failure
    ?emit:t.emit ~switch:sw t.cluster plan ~on_done

and chase t ~depth ~target (r : Executor.record) ~on_settled =
  Collector.poll t.collector;
  let before = Cluster.config t.cluster in
  let demand = Collector.demand t.collector in
  let queue = t.queue () in
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
    t.on_repair
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
      };
    execute_at t ~depth:(depth + 1) ~demand ~target:o.Repair.target
      o.Repair.plan ~on_settled
  | None -> on_settled Nothing_to_repair

let execute t ~demand ~target plan ~on_settled =
  execute_at t ~depth:0 ~demand ~target plan ~on_settled

let decided t (obs : Decision.observation) (result : Optimizer.result)
    ~on_settled =
  let plan = result.Optimizer.plan and target = result.Optimizer.target in
  if not (Plan.is_empty plan) then
    execute t ~demand:obs.Decision.demand ~target plan ~on_settled
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

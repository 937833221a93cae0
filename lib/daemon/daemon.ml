(* entropyd: the overload-tolerant online control plane.

   One discrete-event episode of the session's loop (Vsim.Session.loop),
   paced by events: open-arrival submissions stream in
   (Vworkload.Arrivals), every event — arrival, completion, load spike,
   node crash — raises a debounced trigger (Triggers), each trigger fire
   runs one decision round at the degradation ladder's current rung
   (Ladder), admitting at most a batch from the bounded submission
   queue (Admission) and re-placing the admitted, still-live vjobs
   through the session's decision round. Admission decisions and ladder
   transitions ride the write-ahead journal next to the switch records,
   so a killed daemon resumes mid-storm: settled dispositions are
   replayed, the last switch is reconciled and completed idempotently,
   missed arrivals are re-submitted, and the ladder restarts on its
   journaled rung.

   Determinism: the instance, the arrival schedule and the crash script
   all derive from [config.seed]; with [deterministic = true] the
   wall-clock-bounded solver portfolio is replaced by the FFD incumbent
   at every rung and the whole episode is a pure function of the
   config. *)

module Obs = Entropy_obs.Obs
module Trace = Entropy_obs.Trace
module Metrics = Entropy_obs.Metrics
module Json = Entropy_obs.Json
module Journal = Entropy_journal.Journal
module Jrecord = Entropy_journal.Record
module Recovery = Entropy_journal.Recovery
module Injector = Entropy_fault.Injector
module Supervisor = Entropy_fault.Supervisor
module Arrivals = Vworkload.Arrivals
module Engine = Vsim.Engine
module Cluster = Vsim.Cluster
module Executor = Vsim.Executor
module Session = Vsim.Session
open Entropy_core

type config = {
  seed : int;
  nodes : int;
  submissions : int;
  base_rate : float;
  burst_rate : float;
  mean_calm_s : float;
  mean_burst_s : float;
  admission_cap : int;
  admit_batch : int;
  debounce_s : float;
  deterministic : bool;
  fail_rate : float;
  crashes : int;
  kill_at : float option;
  max_time : float;
}

let default_config =
  {
    seed = 0;
    nodes = 24;
    submissions = 200;
    base_rate = 1. /. 60.;
    burst_rate = 0.25;
    mean_calm_s = 900.;
    mean_burst_s = 120.;
    admission_cap = 64;
    admit_batch = 8;
    debounce_s = 5.;
    deterministic = false;
    fail_rate = 0.1;
    crashes = 0;
    kill_at = None;
    max_time = 1_000_000.;
  }

(* Fixed for every episode: the node shape, the ladder thresholds
   (constants of [Ladder]), the portfolio wall deadlines at the Full
   and Shrunk rungs and supervised execution under
   [Supervisor.default_policy]. *)
let node_cpu = 400  (* hundredths of a core per node *)
let node_mem = 4096  (* MB per node *)
let full_deadline = 0.02
let shrunk_deadline = 0.005

type report = {
  submissions : int;
  admitted : int;
  rejected : int;
  completed : int;
  all_terminated : bool;
  final_viable : bool;
  max_queue_depth : int;
  admission_cap : int;
  queue_bounded : bool;
  decision_rounds : int;
  deferred_rounds : int;
  max_defer_streak : int;
  defer_round_bound : int;
  livelock_episodes : int;
  degradation_bounded : bool;
  ladder_ups : int;
  ladder_downs : int;
  transitions : Ladder.transition list;
  final_level : Ladder.level;
  triggers_raised : int;
  triggers_coalesced : int;
  switches : int;
  repairs : int;
  action_failures : int;
  crashes : (Node.id * float) list;
  killed : bool;
  resumed : bool;
  makespan : float;
  final_config : Configuration.t;
}

(* -- metrics (registered once, registry is process-wide) ------------------- *)

let m_depth = lazy (Metrics.gauge "daemon.queue.depth")
let m_peak = lazy (Metrics.gauge "daemon.queue.depth.peak")
let m_age = lazy (Metrics.gauge "daemon.queue.oldest_age_s")
let m_lag = lazy (Metrics.histogram "daemon.decision.lag_s")
let m_level = lazy (Metrics.gauge "daemon.ladder.level")
let m_subs = lazy (Metrics.counter "daemon.submissions")
let m_admitted = lazy (Metrics.counter "daemon.admitted")
let m_rejected = lazy (Metrics.counter "daemon.rejected")
let m_rounds = lazy (Metrics.counter "daemon.rounds")
let m_deferred = lazy (Metrics.counter "daemon.rounds.deferred")
let m_raised = lazy (Metrics.counter "daemon.triggers.raised")

(* -- deterministic instance ------------------------------------------------ *)

type instance = {
  config0 : Configuration.t;
  vjobs : Vjob.t array;  (* index = vjob id = arrival index *)
  programs : Vm.id -> Vworkload.Program.t;
  arrivals : Arrivals.arrival array;
  max_node_mem : int;
}

(* Everything derives from the seed: node fleet, per-vjob VM counts and
   memories, per-VM programs (a quarter get a mid-life idle phase — the
   return to compute is the organic load spike), arrival instants. *)
let build_instance (c : config) =
  let arrivals =
    Array.of_list
      (Arrivals.generate
         {
           Arrivals.seed = c.seed;
           count = c.submissions;
           base_rate = c.base_rate;
           burst_rate = c.burst_rate;
           mean_calm_s = c.mean_calm_s;
           mean_burst_s = c.mean_burst_s;
         })
  in
  let rng = Random.State.make [| c.seed; 0xdae0 |] in
  let nodes =
    Array.init c.nodes (fun i ->
        Node.make ~id:i
          ~name:(Printf.sprintf "N%d" i)
          ~cpu_capacity:node_cpu ~memory_mb:node_mem)
  in
  let vms = ref [] in
  let progs = ref [] in
  let next_vm = ref 0 in
  let jobs = ref [] in
  Array.iteri
    (fun j (a : Arrivals.arrival) ->
      let nv = 1 + Random.State.int rng 2 in
      let ids = List.init nv (fun k -> !next_vm + k) in
      next_vm := !next_vm + nv;
      List.iter
        (fun id ->
          let mem = 512 + (256 * Random.State.int rng 3) in
          let work = 240. +. float_of_int (Random.State.int rng 480) in
          let prog =
            if Random.State.int rng 4 = 0 then
              [
                Vworkload.Program.Compute (work /. 2.);
                Vworkload.Program.Idle
                  (60. +. float_of_int (Random.State.int rng 120));
                Vworkload.Program.Compute (work /. 2.);
              ]
            else [ Vworkload.Program.Compute work ]
          in
          vms :=
            Vm.make ~id
              ~name:(Printf.sprintf "sub%04d-vm%d" j id)
              ~memory_mb:mem
            :: !vms;
          progs := prog :: !progs)
        ids;
      jobs :=
        Vjob.make ~id:j
          ~name:(Printf.sprintf "sub%04d" j)
          ~vms:ids ~submit_time:a.Arrivals.at_s ()
        :: !jobs)
    arrivals;
  let vms = Array.of_list (List.rev !vms) in
  let progs = Array.of_list (List.rev !progs) in
  {
    config0 = Configuration.make ~nodes ~vms;
    vjobs = Array.of_list (List.rev !jobs);
    programs = (fun vm -> progs.(vm));
    arrivals;
    max_node_mem = node_mem;
  }

let last_arrival instance =
  Array.fold_left
    (fun acc (a : Arrivals.arrival) -> Float.max acc a.Arrivals.at_s)
    1. instance.arrivals

let crash_schedule (c : config) instance =
  if c.crashes = 0 then []
  else
    Injector.crash_script ~seed:c.seed ~node_count:c.nodes
      ~horizon_s:(last_arrival instance) ~count:c.crashes ()
    |> List.filter_map (function
         | Injector.Crash_node { node; at_s } -> Some (node, at_s)
         | Injector.Fail_rate _ | Injector.Fail_nth _ | Injector.Slowdown _
         | Injector.Predicate _ -> None)

(* -- the event loop -------------------------------------------------------- *)

(* What distinguishes a cold start from a resume: already-settled
   admission state, arrivals still owed, crashes already enacted, the
   ladder's rung and the journal's resume point. *)
type boot = {
  instance : instance;
  journal : Journal.t option;
  admitted0 : (int, unit) Hashtbl.t;
  rejected0 : int;
  requeued : Admission.entry list;
  missed : int list;  (* arrivals owed immediately (lost to the crash) *)
  pending : (int * float) list;  (* (vjob id, engine time) future arrivals *)
  pre_crashes : (Node.id * float) list;
  future_crashes : (Node.id * float) list;
  level0 : Ladder.level;
  recovered : (Configuration.t * Recovery.resume) option;
      (* the journal's resume point *)
  resumed : bool;
}

module Int_set = Set.Make (Int)

let decide_model_s = function
  (* modeled decision latency per rung, in simulated seconds: the whole
     point of stepping down the ladder is buying back this time *)
  | Ladder.Full -> 5.0
  | Ladder.Shrunk -> 2.0
  | Ladder.Heuristic -> 0.5
  | Ladder.Defer -> 0.

let run_core (c : config) (b : boot) =
  let instance = b.instance in
  let injector =
    Injector.create ~seed:c.seed
      [ Injector.Fail_rate { kind = None; rate = c.fail_rate } ]
  in
  let adm = Admission.create ~cap:c.admission_cap () in
  List.iter (Admission.requeue adm) b.requeued;
  let trig = Triggers.create ~debounce_s:c.debounce_s () in
  let ladder = Ladder.create ~level:b.level0 () in
  let admitted = b.admitted0 in
  let rejected = ref b.rejected0 in
  let jappend r = Option.iter (fun j -> Journal.append j r) b.journal in
  let ffd = Decision.ffd_only () in
  let d_full =
    if c.deterministic then ffd
    else
      Entropy_place.Portfolio.decision ~engine:`Portfolio
        ~deadline:full_deadline ()
  in
  let d_shrunk =
    if c.deterministic then ffd
    else
      Entropy_place.Portfolio.decision ~engine:`Portfolio
        ~deadline:shrunk_deadline ()
  in
  let decision_of = function
    | Ladder.Full -> d_full
    | Ladder.Shrunk -> d_shrunk
    | Ladder.Heuristic | Ladder.Defer -> ffd
  in
  let rounds = ref 0 in
  let deferred_rounds = ref 0 in
  let defer_streak = ref 0 in
  let max_defer_streak = ref 0 in
  let livelock_episodes = ref 0 in
  let crash_log = ref [] in
  let transitions = ref [] in
  let arrivals_left = ref (List.length b.missed + List.length b.pending) in
  (* The admitted vjobs not seen terminated yet, in ascending id (the
     queue order). A terminated VM never leaves that state, so a vjob
     found terminated is pruned for good when the set is read. *)
  let live =
    ref (Hashtbl.fold (fun id () acc -> Int_set.add id acc) admitted Int_set.empty)
  in
  let live_admitted s =
    let cfg = Session.config s in
    live :=
      Int_set.filter
        (fun id -> not (Configuration.vjob_terminated cfg instance.vjobs.(id)))
        !live;
    List.map (fun id -> instance.vjobs.(id)) (Int_set.elements !live)
  in
  (* the event-driven pacing: debounced triggers, admission and the
     degradation ladder *)
  let pace s =
    let engine = Session.engine s in
    let cluster = Session.cluster s in
    let work_done () =
      !arrivals_left = 0 && Admission.depth adm = 0 && live_admitted s = []
    in
    (* a parked vjob (any VM suspended or still waiting) generates no
       events of its own: only a re-decision can move it *)
    let parked () =
      let cfg = Cluster.config cluster in
      List.exists
        (fun vj ->
          List.exists
            (fun vm ->
              match Configuration.state cfg vm with
              | Configuration.Running _ | Configuration.Terminated -> false
              | Configuration.Sleeping _ | Configuration.Sleeping_ram _
              | Configuration.Waiting -> true)
            (Vjob.vms vj))
        (live_admitted s)
    in
    let wake_backoff = ref c.debounce_s in
    let note_queue_metrics now =
      if !Obs.enabled then begin
        let d = float_of_int (Admission.depth adm) in
        Metrics.set (Lazy.force m_depth) d;
        Metrics.set_max (Lazy.force m_peak) d;
        Metrics.set (Lazy.force m_age) (Admission.oldest_age adm ~now)
      end
    in
    let rec on_fire () =
      if Session.finished s then ()
      else
        match Triggers.fire trig with
        | None -> ()
        | Some p ->
          let now = Engine.now engine in
          let lag = Float.max 0. (now -. p.Triggers.first_at) in
          incr rounds;
          if !Obs.enabled then begin
            Metrics.incr (Lazy.force m_rounds);
            Metrics.observe (Lazy.force m_lag) lag;
            Obs.instant ~cat:"daemon"
              ~args:
                [
                  ("reasons", Trace.S (String.concat "," p.Triggers.reasons));
                  ("events", Trace.I p.Triggers.events);
                ]
              "daemon.round"
          end;
          let pressure =
            {
              Ladder.queue_fill = Admission.fill adm;
              oldest_age_s = Admission.oldest_age adm ~now;
              decision_lag_s = lag;
            }
          in
          (match Ladder.observe ladder ~now pressure with
          | Some tr ->
            transitions := tr :: !transitions;
            jappend
              (Jrecord.Ladder
                 {
                   at_s = now;
                   from_level = Ladder.index tr.Ladder.from_level;
                   to_level = Ladder.index tr.Ladder.to_level;
                   reason = tr.Ladder.cause;
                 });
            if !Obs.enabled then
              Metrics.set (Lazy.force m_level)
                (float_of_int (Ladder.index tr.Ladder.to_level));
            if tr.Ladder.to_level = Ladder.Defer then begin
              (* the hold is the bottom rung's exit ticket: make sure a
                 trigger exists to take it *)
              let at = Float.max (now +. 0.001) (Ladder.defer_until ladder) in
              ignore
                (Engine.schedule engine ~at (fun () ->
                     trigger_raise "defer hold expired"))
            end
          | None -> ());
          (match Ladder.level ladder with
          | Ladder.Defer ->
            (* serve the current configuration: no admission, no decision *)
            incr deferred_rounds;
            if !Obs.enabled then Metrics.incr (Lazy.force m_deferred);
            incr defer_streak;
            if !defer_streak > !max_defer_streak then
              max_defer_streak := !defer_streak;
            Log.debug (fun m ->
                m "round %d deferred (%a)" !rounds Ladder.pp_pressure pressure);
            settle_and_rearm ()
          | level ->
            defer_streak := 0;
            let entries = Admission.take adm ~max:c.admit_batch in
            List.iter
              (fun (e : Admission.entry) ->
                Hashtbl.replace admitted e.Admission.vjob ();
                live := Int_set.add e.Admission.vjob !live;
                if !Obs.enabled then Metrics.incr (Lazy.force m_admitted);
                jappend
                  (Jrecord.Submission
                     {
                       at_s = now;
                       vjob = e.Admission.vjob;
                       vms = e.Admission.vms;
                       disposition = Jrecord.Admitted;
                     }))
              entries;
            note_queue_metrics now;
            let delay = decide_model_s level in
            if delay <= 0. then decide level
            else
              ignore
                (Engine.schedule_after engine ~delay (fun () -> decide level)))
    and decide level =
      Session.round s ~cat:"daemon" ~name:"daemon.decide"
        ~args:[ ("level", Trace.S (Ladder.to_string level)) ]
        (decision_of level) ~on_settled:settled
    (* a switch still degraded after the whole repair chain is the
       livelock guard: counted, never spun on *)
    and settled outcome =
      if outcome = Session.Exhausted then incr livelock_episodes;
      settle_and_rearm ()
    and settle_and_rearm () =
      let now = Engine.now engine in
      if work_done () then begin
        Session.finish s;
        ignore (Triggers.settle trig ~now)
      end
      else begin
        match Triggers.settle trig ~now with
        | Some at -> ignore (Engine.schedule engine ~at on_fire)
        | None ->
          (* no raise arrived while busy, but leftover work must not
             strand: a queued backlog re-arms at once, parked vjobs retry
             on an exponential backoff (a wake can keep failing — a crash
             may have eaten the capacity for good) *)
          if Admission.depth adm > 0 then trigger_raise "queued backlog"
          else if parked () then begin
            let delay = !wake_backoff in
            wake_backoff := Float.min 600. (!wake_backoff *. 2.);
            ignore
              (Engine.schedule_after engine ~delay (fun () ->
                   trigger_raise "parked vjobs"))
          end
      end
    and trigger_raise reason =
      if not (Session.finished s) then begin
        let now = Engine.now engine in
        if !Obs.enabled then Metrics.incr (Lazy.force m_raised);
        match Triggers.raise_ trig ~now ~reason with
        | Some at -> ignore (Engine.schedule engine ~at on_fire)
        | None -> ()
      end
    in
    let submit_vjob id =
      decr arrivals_left;
      if not (Session.finished s) then begin
        let now = Engine.now engine in
        let vj = instance.vjobs.(id) in
        let vm_ids = Vjob.vms vj in
        let nvms = List.length vm_ids in
        if !Obs.enabled then Metrics.incr (Lazy.force m_subs);
        let unsatisfiable =
          List.exists
            (fun vm_id ->
              Vm.memory_mb (Configuration.vm instance.config0 vm_id)
              > instance.max_node_mem)
            vm_ids
        in
        let disposition =
          if unsatisfiable then
            (* no queue slot can help a VM no node could ever host *)
            `Rejected "unsatisfiable: VM memory exceeds node capacity"
          else Admission.submit adm ~now ~vjob:id ~vms:nvms
        in
        match disposition with
        | `Queued ->
          jappend
            (Jrecord.Submission
               {
                 at_s = now;
                 vjob = id;
                 vms = nvms;
                 disposition = Jrecord.Queued;
               });
          note_queue_metrics now;
          trigger_raise "vjob arrival"
        | `Rejected reason ->
          incr rejected;
          if !Obs.enabled then Metrics.incr (Lazy.force m_rejected);
          jappend
            (Jrecord.Submission
               {
                 at_s = now;
                 vjob = id;
                 vms = nvms;
                 disposition = Jrecord.Rejected reason;
               })
      end
    in
    List.iter
      (fun id ->
        ignore (Engine.schedule engine ~at:0.001 (fun () -> submit_vjob id)))
      b.missed;
    List.iter
      (fun (id, at) ->
        ignore
          (Engine.schedule engine ~at:(Float.max 0.002 at) (fun () ->
               submit_vjob id)))
      b.pending;
    (* crashes already enacted before the kill but not yet reflected in
       the journal-projected configuration: re-enact them silently *)
    List.iter
      (fun (node, _) -> ignore (Cluster.crash_node cluster node))
      b.pre_crashes;
    let completions_seen = ref (Cluster.completion_count cluster) in
    Cluster.on_change cluster (fun () ->
        let n = Cluster.completion_count cluster in
        if n > !completions_seen then begin
          completions_seen := n;
          (* freed capacity: parked vjobs get a fresh (cheap) wake retry *)
          wake_backoff := c.debounce_s;
          trigger_raise "vjob completion"
        end);
    (* periodic monitoring poll; an overload onset is the load-spike
       trigger (a VM leaving its idle phase, a crash shrinking capacity) *)
    let overloaded = ref false in
    {
      Session.start =
        (fun ~resumed ->
          if resumed then begin
            (* the journal's resume plan runs first. Claim the trigger
               machine for it (Idle -> Armed -> Busy) so an early
               arrival cannot start a second, overlapping decision round —
               everything raised meanwhile coalesces and re-arms at
               settle *)
            ignore
              (Triggers.raise_ trig ~now:0. ~reason:"resume reconciliation");
            ignore (Triggers.fire trig)
          end
          else
            (* a resume can come back with parked vjobs or a requeued
               backlog and no event in sight: kick one boot round *)
            ignore
              (Engine.schedule engine ~at:0.004 (fun () ->
                   if Admission.depth adm > 0 || parked () then
                     trigger_raise "daemon start")));
      on_settled = settled;
      on_poll =
        (fun () ->
          let over = Cluster.overloaded cluster in
          if over && not !overloaded then trigger_raise "load spike";
          overloaded := over);
      on_crash =
        (fun node affected ->
          crash_log := (node, Session.now s) :: !crash_log;
          Log.info (fun m ->
              m "node N%d crashed at %.0fs: %d vjobs reset" node (Session.now s)
                (List.length affected));
          trigger_raise "node crash");
      complete = work_done;
    }
  in
  let o =
    Session.loop
      ~config:(Option.fold ~none:instance.config0 ~some:fst b.recovered)
      ~vjobs:(Array.to_list instance.vjobs)
      ~programs:instance.programs ~journal:b.journal
      ~injector:(Some injector) ~policy:(Some Supervisor.default_policy)
      ~queue:live_admitted
      ~crashes:
        (* after the arrivals owed at 0.001 s and 0.002 s *)
        (List.map
           (fun (node, at) -> (node, Float.max 0.003 at))
           b.future_crashes)
      ~resume:(Option.map snd b.recovered) ~kill_at:c.kill_at
      ~max_time:c.max_time pace
  in
  let final_config = o.Session.final_config in
  let admitted_ids =
    Hashtbl.fold (fun id () acc -> id :: acc) admitted []
    |> List.sort compare
  in
  let completed =
    List.length
      (List.filter
         (fun id ->
           Configuration.vjob_terminated final_config instance.vjobs.(id))
         admitted_ids)
  in
  List.iter
    (fun id ->
      let vj = instance.vjobs.(id) in
      if not (Configuration.vjob_terminated final_config vj) then
        Log.debug (fun m ->
            m "vjob %d not terminated at exit: %a" id
              Fmt.(list ~sep:comma Configuration.pp_vm_state)
              (List.map (Configuration.state final_config) (Vjob.vms vj))))
    admitted_ids;
  let all_terminated = completed = List.length admitted_ids in
  let vm_count = Configuration.vm_count final_config in
  let final_viable =
    Configuration.is_viable final_config
      (Demand.uniform ~vm_count Vworkload.Program.compute_demand)
  in
  let defer_round_bound =
    1
    + int_of_float
        (Float.ceil (Ladder.defer_hold_s /. Float.max 1. c.debounce_s))
  in
  let action_failures =
    List.fold_left (fun a (r : Executor.record) -> a + r.Executor.failed) 0
      o.Session.switches
  in
  {
    submissions = List.length admitted_ids + !rejected + Admission.depth adm;
    admitted = List.length admitted_ids;
    rejected = !rejected;
    completed;
    all_terminated;
    final_viable;
    max_queue_depth = Admission.peak adm;
    admission_cap = c.admission_cap;
    queue_bounded = Admission.peak adm < c.admission_cap;
    decision_rounds = !rounds;
    deferred_rounds = !deferred_rounds;
    max_defer_streak = !max_defer_streak;
    defer_round_bound;
    livelock_episodes = !livelock_episodes;
    degradation_bounded =
      !livelock_episodes = 0 && !max_defer_streak <= defer_round_bound;
    ladder_ups = Ladder.ups ladder;
    ladder_downs = Ladder.downs ladder;
    transitions = List.rev !transitions;
    final_level = Ladder.level ladder;
    triggers_raised = Triggers.raised_total trig;
    triggers_coalesced = Triggers.coalesced_total trig;
    switches = List.length o.Session.switches;
    repairs = List.length o.Session.repairs;
    action_failures;
    crashes = List.rev !crash_log;
    killed = o.Session.killed;
    resumed = b.resumed;
    makespan = o.Session.makespan;
    final_config;
  }

(* -- cold start ------------------------------------------------------------ *)

let run ?journal c =
  let instance = build_instance c in
  let pending =
    List.mapi
      (fun j (a : Arrivals.arrival) -> (j, a.Arrivals.at_s))
      (Array.to_list instance.arrivals)
  in
  Log.info (fun m ->
      m "daemon run: %d submissions over %d nodes (seed %d), cap %d, %d \
         scripted crashes"
        c.submissions c.nodes c.seed c.admission_cap c.crashes);
  run_core c
    {
      instance;
      journal;
      admitted0 = Hashtbl.create 97;
      rejected0 = 0;
      requeued = [];
      missed = [];
      pending;
      pre_crashes = [];
      future_crashes = crash_schedule c instance;
      level0 = Ladder.Full;
      recovered = None;
      resumed = false;
    }

(* -- resume ---------------------------------------------------------------- *)

let resume ~journal ~records c =
  let instance = build_instance c in
  let crash_time =
    List.fold_left (fun acc r -> Float.max acc (Jrecord.at_s r)) 0. records
  in
  (* settled dispositions: the last journaled one per vjob wins *)
  let disp : (int, Jrecord.disposition) Hashtbl.t = Hashtbl.create 97 in
  let level0 = ref Ladder.Full in
  List.iter
    (fun r ->
      match r with
      | Jrecord.Submission { vjob; disposition; _ } ->
        Hashtbl.replace disp vjob disposition
      | Jrecord.Ladder { to_level; _ } -> (
        match Ladder.of_index to_level with
        | Some l -> level0 := l
        | None -> ())
      | Jrecord.Switch_begin _ | Jrecord.Action_started _
      | Jrecord.Action_done _ | Jrecord.Action_failed _
      | Jrecord.Pool_committed _ | Jrecord.Switch_end _ -> ())
    records;
  let admitted0 = Hashtbl.create 97 in
  let rejected0 = ref 0 in
  let requeued = ref [] in
  Array.iter
    (fun vj ->
      let id = Vjob.id vj in
      match Hashtbl.find_opt disp id with
      | Some Jrecord.Admitted -> Hashtbl.replace admitted0 id ()
      | Some (Jrecord.Rejected _) -> incr rejected0
      | Some Jrecord.Queued ->
        (* queued but never admitted before the crash: back in line *)
        requeued :=
          {
            Admission.vjob = id;
            vms = List.length (Vjob.vms vj);
            submitted_at = 0.;
          }
          :: !requeued
      | None -> ())
    instance.vjobs;
  (* arrivals the dead daemon never disposed of: those already due are
     re-submitted at once, the rest keep their schedule (shifted — the
     resumed engine restarts at zero) *)
  let missed = ref [] in
  let pending = ref [] in
  Array.iteri
    (fun id (a : Arrivals.arrival) ->
      if not (Hashtbl.mem disp id) then
        if a.Arrivals.at_s <= crash_time then missed := id :: !missed
        else pending := (id, a.Arrivals.at_s -. crash_time) :: !pending)
    instance.arrivals;
  let pre_crashes, future_crashes =
    List.partition (fun (_, t) -> t <= crash_time) (crash_schedule c instance)
  in
  let recovered =
    Session.recover records
      ~vjobs:
        (List.filter
           (fun vj -> Hashtbl.mem admitted0 (Vjob.id vj))
           (Array.to_list instance.vjobs))
  in
  Log.info (fun m ->
      m "daemon resume: %d records, crash at %.0fs, %d admitted / %d \
         rejected / %d requeued settled, %d arrivals owed, ladder %a"
        (List.length records) crash_time (Hashtbl.length admitted0) !rejected0
        (List.length !requeued)
        (List.length !missed + List.length !pending)
        Ladder.pp !level0);
  run_core c
    {
      instance;
      journal = Some journal;
      admitted0;
      rejected0 = !rejected0;
      requeued = List.rev !requeued;
      missed = List.rev !missed;
      pending = List.rev !pending;
      pre_crashes;
      future_crashes =
        List.map (fun (n, t) -> (n, t -. crash_time)) future_crashes;
      level0 = !level0;
      recovered;
      resumed = true;
    }

(* -- reporting ------------------------------------------------------------- *)

let to_json r =
  Json.Obj
    [
      ("submissions", Json.Int r.submissions);
      ("admitted", Json.Int r.admitted);
      ("rejected", Json.Int r.rejected);
      ("completed", Json.Int r.completed);
      ("all_terminated", Json.Bool r.all_terminated);
      ("final_viable", Json.Bool r.final_viable);
      ("max_queue_depth", Json.Int r.max_queue_depth);
      ("admission_cap", Json.Int r.admission_cap);
      ("queue_bounded", Json.Bool r.queue_bounded);
      ("decision_rounds", Json.Int r.decision_rounds);
      ("deferred_rounds", Json.Int r.deferred_rounds);
      ("max_defer_streak", Json.Int r.max_defer_streak);
      ("defer_round_bound", Json.Int r.defer_round_bound);
      ("livelock_episodes", Json.Int r.livelock_episodes);
      ("degradation_bounded", Json.Bool r.degradation_bounded);
      ("ladder_ups", Json.Int r.ladder_ups);
      ("ladder_downs", Json.Int r.ladder_downs);
      ( "transitions",
        Json.List
          (List.map
             (fun (t : Ladder.transition) ->
               Json.Obj
                 [
                   ("at_s", Json.Float t.Ladder.at_s);
                   ("from", Json.String (Ladder.to_string t.Ladder.from_level));
                   ("to", Json.String (Ladder.to_string t.Ladder.to_level));
                   ("cause", Json.String t.Ladder.cause);
                 ])
             r.transitions) );
      ("final_level", Json.String (Ladder.to_string r.final_level));
      ("triggers_raised", Json.Int r.triggers_raised);
      ("triggers_coalesced", Json.Int r.triggers_coalesced);
      ("switches", Json.Int r.switches);
      ("repairs", Json.Int r.repairs);
      ("action_failures", Json.Int r.action_failures);
      ( "crashes",
        Json.List
          (List.map
             (fun (n, t) ->
               Json.Obj [ ("node", Json.Int n); ("at_s", Json.Float t) ])
             r.crashes) );
      ("killed", Json.Bool r.killed);
      ("resumed", Json.Bool r.resumed);
      ("makespan_s", Json.Float r.makespan);
    ]

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>%d submissions: %d admitted, %d rejected, %d completed%s@,\
     queue: peak %d / cap %d (%s)@,\
     rounds: %d (%d deferred, max streak %d/%d), %d switches, %d repairs@,\
     ladder: %d up / %d down, final %a; triggers: %d raised, %d coalesced@,\
     faults: %d action failures, %d crashes, %d livelock episodes@,\
     makespan %.0f s, final configuration %s%s@]"
    r.submissions r.admitted r.rejected r.completed
    (if r.all_terminated then " (all admitted terminated)" else "")
    r.max_queue_depth r.admission_cap
    (if r.queue_bounded then "bounded" else "OVERFLOWED")
    r.decision_rounds r.deferred_rounds r.max_defer_streak r.defer_round_bound
    r.switches r.repairs r.ladder_ups r.ladder_downs Ladder.pp r.final_level
    r.triggers_raised r.triggers_coalesced r.action_failures
    (List.length r.crashes) r.livelock_episodes r.makespan
    (if r.final_viable then "viable" else "NOT viable")
    (if r.killed then " [killed]" else "")

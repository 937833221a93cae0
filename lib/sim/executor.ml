(* Execute a reconfiguration plan on the simulated cluster with the
   paper's pool model: pools run sequentially; inside a pool every
   action starts in parallel, except the suspends and resumes, which are
   pipelined one second apart (in the order the consistency pass sorted
   them). An in-flight operation registers contention on the nodes it
   touches, durations account for co-resident busy VMs (Perf_model), and
   the configuration changes when the action completes.

   Every action runs supervised: a fault injector decides per attempt
   whether the hypervisor operation fails or is slowed down, the
   supervisor policy bounds each attempt to [timeout_factor x expected
   duration] (expected = the Table 1 duration with live contention, i.e.
   what the executor would predict — injected slowdowns beyond the
   factor trip the timeout), and failed or timed-out attempts retry with
   exponential backoff in simulated time until the retry budget is
   spent. A terminal failure leaves the VM state unchanged. An action
   touching a crashed node is terminal immediately (node-lost). *)

(* capture the simulator's own log source before [open Entropy_core]
   shadows it with the core's *)
module Sim_log = Log

open Entropy_core
module Obs = Entropy_obs.Obs
module Otrace = Entropy_obs.Trace
module Ometrics = Entropy_obs.Metrics
module Injector = Entropy_fault.Injector
module Supervisor = Entropy_fault.Supervisor
module Jrecord = Entropy_journal.Record

type record = {
  started_at : float;
  finished_at : float;
  cost : int;           (* Table 1 plan cost, computed at start *)
  migrations : int;
  suspends : int;
  resumes : int;
  local_resumes : int;
  runs : int;
  stops : int;
  pools : int;
  failed : int;         (* terminally failed actions (state unchanged) *)
  retries : int;        (* extra attempts across all actions *)
  timeouts : int;       (* attempts aborted by the supervisor timeout *)
  node_losses : int;    (* actions lost to a crashed node *)
  failed_vms : Vm.id list;    (* VMs whose action terminally failed *)
  lost_nodes : Node.id list;  (* crashed nodes seen during the switch *)
  aborted : bool;       (* execution stopped early for repair *)
}

let duration t = t.finished_at -. t.started_at

let pp_record ppf r =
  Fmt.pf ppf
    "switch cost=%d duration=%.0fs (%d pools, %dM %dS %dR %drun %dstop)"
    r.cost (duration r) r.pools r.migrations r.suspends r.resumes r.runs
    r.stops;
  if r.failed > 0 || r.retries > 0 || r.timeouts > 0 || r.node_losses > 0 then
    Fmt.pf ppf " [%d failed, %d retries, %d timeouts, %d node-losses%s]"
      r.failed r.retries r.timeouts r.node_losses
      (if r.aborted then ", aborted" else "")

let touched_nodes = function
  | Action.Run { dst; _ } -> [ dst ]
  | Action.Stop { host; _ } -> [ host ]
  | Action.Suspend { host; _ } -> [ host ]
  | Action.Migrate { src; dst; _ } -> [ src; dst ]
  | Action.Resume { src; dst; _ } -> if src = dst then [ dst ] else [ src; dst ]
  (* RAM pause/unpause: too short to create measurable contention *)
  | Action.Suspend_ram _ | Action.Resume_ram _ -> []

(* RAM operations register no contention, but they still live or die
   with their host. *)
let involved_nodes = function
  | Action.Suspend_ram { host; _ } | Action.Resume_ram { host; _ } -> [ host ]
  | a -> touched_nodes a

(* First crashed node in the list, or -1 when all are alive: avoids the
   [List.find_opt] closure + option that the supervised path would
   otherwise allocate twice per attempt. *)
let rec first_dead cluster = function
  | [] -> -1
  | nd :: rest ->
    if Cluster.node_alive cluster nd then first_dead cluster rest else nd

let kind_name = function
  | Action.Run _ -> "run"
  | Action.Stop _ -> "stop"
  | Action.Migrate _ -> "migrate"
  | Action.Suspend _ -> "suspend"
  | Action.Resume _ -> "resume"
  | Action.Suspend_ram _ -> "suspend_ram"
  | Action.Resume_ram _ -> "resume_ram"

(* -- supervision ------------------------------------------------------------- *)

(* Per-execution failure bookkeeping. *)
type tally = {
  mutable t_failed : int;
  mutable t_retries : int;
  mutable t_timeouts : int;
  mutable t_node_losses : int;
  mutable t_failed_vms : Vm.id list;
  mutable t_lost_nodes : Node.id list;
}

let mk_tally () =
  {
    t_failed = 0;
    t_retries = 0;
    t_timeouts = 0;
    t_node_losses = 0;
    t_failed_vms = [];
    t_lost_nodes = [];
  }

let m_injected = lazy (Ometrics.counter "fault.injected")
let m_retries = lazy (Ometrics.counter "fault.retries")
let m_timeouts = lazy (Ometrics.counter "fault.timeouts")
let m_node_losses = lazy (Ometrics.counter "fault.node_losses")

let note_failed tally vm =
  tally.t_failed <- tally.t_failed + 1;
  if not (List.mem vm tally.t_failed_vms) then
    tally.t_failed_vms <- vm :: tally.t_failed_vms

let note_node_lost tally node =
  tally.t_node_losses <- tally.t_node_losses + 1;
  if not (List.mem node tally.t_lost_nodes) then
    tally.t_lost_nodes <- node :: tally.t_lost_nodes;
  if !Obs.enabled then Ometrics.incr (Lazy.force m_node_losses)

(* Resolve the supervision inputs: without an injector nothing is
   injected, and without a policy the default supervised one holds
   (with nothing injected an attempt runs exactly its expected time, so
   it never times out and never retries). *)
let resolve ?injector ?policy () =
  ( Option.value injector ~default:Injector.none,
    Option.value policy ~default:Supervisor.default_policy )

(* Run one action under supervision: contention registration, duration
   (with injected slowdown), timeout, bounded backoff retries, node-loss
   detection. Calls [on_complete applied] once, when the action reaches
   a terminal outcome ([applied] is false unless the action applied).

   [emit], when given, journals every state transition of the action:
   one [Action_started] per attempt, then exactly one terminal
   [Action_done] or [Action_failed]. The records carry simulated time
   and are appended before the configuration change becomes visible to
   anyone else (the completion callback runs after the append), so a
   crash between the two is indistinguishable from a crash right before
   the transition — the write-ahead property recovery relies on. *)
let run_action ?emit ?(switch = 0) ~pool cluster ~injector ~policy
    ~tally action ~on_complete =
  let engine = Cluster.engine cluster in
  let vm = Action.vm action in
  let nodes = touched_nodes action in
  let all_nodes = involved_nodes action in
  let local = Action.is_local action in
  let kind = kind_name action in
  (* journal emission is inlined per case so the [emit = None] hot path
     allocates neither a record nor an intermediate closure *)
  let emit_started n =
    match emit with
    | None -> ()
    | Some f ->
      f
        (Jrecord.Action_started
           { switch; pool; attempt = n; at_s = Engine.now engine; action })
  in
  let emit_done () =
    match emit with
    | None -> ()
    | Some f ->
      f (Jrecord.Action_done { switch; pool; at_s = Engine.now engine; action })
  in
  let emit_failed () =
    match emit with
    | None -> ()
    | Some f ->
      f
        (Jrecord.Action_failed { switch; pool; at_s = Engine.now engine; action })
  in
  let terminal_node_loss node =
    note_node_lost tally node;
    note_failed tally vm;
    Sim_log.debug (fun m ->
        m "%s VM%d: node N%d lost, action abandoned" kind vm node);
    emit_failed ();
    on_complete false
  in
  let rec attempt n =
    match first_dead cluster all_nodes with
    | node when node >= 0 -> terminal_node_loss node
    | _ ->
      emit_started n;
      let config = Cluster.config cluster in
      let busy node = Cluster.busy ~except:vm cluster node in
      let decision = Injector.decide injector action in
      let dur = Perf_model.action_duration ~busy action config in
      (* the supervisor's expectation is what the executor itself would
         predict (contention included): only injected slowdowns beyond
         the factor trip the timeout *)
      let deadline = Supervisor.timeout_s policy ~expected_s:dur in
      let dur = dur *. decision.Injector.slowdown in
      let timed_out = dur > deadline in
      let run_for = if timed_out then deadline else dur in
      if !Obs.enabled then begin
        Obs.sim_span
          ~name:("sim." ^ kind)
          ~args:
            [
              ("vm", Otrace.I vm); ("dur_s", Otrace.F run_for);
              ("attempt", Otrace.I n);
            ]
          ~at_s:(Engine.now engine) ~dur_s:run_for ();
        Ometrics.observe (Ometrics.histogram ("sim.action_s." ^ kind)) run_for
      end;
      Cluster.register_op cluster ~nodes ~local;
      Cluster.recompute cluster;
      ignore
        (Engine.schedule_after engine ~delay:run_for (fun () ->
             Cluster.unregister_op cluster ~nodes ~local;
             match first_dead cluster all_nodes with
             | node when node >= 0 ->
               Cluster.recompute cluster;
               terminal_node_loss node
             | _ ->
               if timed_out then begin
                 tally.t_timeouts <- tally.t_timeouts + 1;
                 if !Obs.enabled then Ometrics.incr (Lazy.force m_timeouts);
                 Cluster.recompute cluster;
                 settle n Supervisor.Attempt_timed_out
               end
               else if decision.Injector.fail then begin
                 if !Obs.enabled then Ometrics.incr (Lazy.force m_injected);
                 Cluster.recompute cluster;
                 settle n Supervisor.Fault_injected
               end
               else begin
                 match Cluster.apply_action cluster action with
                 | () ->
                   emit_done ();
                   on_complete true
                 | exception Action.Invalid reason ->
                   (* the VM's state changed under the plan (e.g. a node
                      crash reset its vjob): the action is moot *)
                   Sim_log.debug (fun m ->
                       m "%s VM%d: no longer applicable (%s)" kind vm reason);
                   note_failed tally vm;
                   Cluster.recompute cluster;
                   emit_failed ();
                   on_complete false
               end))
  and settle n reason =
    match Supervisor.next policy ~attempts:n reason with
    | `Retry delay ->
      tally.t_retries <- tally.t_retries + 1;
      if !Obs.enabled then Ometrics.incr (Lazy.force m_retries);
      Sim_log.debug (fun m ->
          m "%s VM%d: attempt %d %s, retrying in %.0fs" kind vm n
            (match reason with
            | Supervisor.Attempt_timed_out -> "timed out"
            | Supervisor.Succeeded | Supervisor.Fault_injected -> "failed")
            delay);
      ignore (Engine.schedule_after engine ~delay (fun () -> attempt (n + 1)))
    | `Done outcome ->
      (* the hypervisor operation terminally failed: the VM keeps its
         previous state; the repair path (or the next control-loop
         iteration) observes the unchanged configuration and replans *)
      note_failed tally vm;
      Sim_log.debug (fun m ->
          m "%s VM%d: %a" kind vm Supervisor.pp_outcome outcome);
      emit_failed ();
      on_complete false
  in
  attempt 1

let mk_record cluster plan ~started_at ~cost ~pools ~tally ~aborted =
  let r =
    {
      started_at;
      finished_at = Engine.now (Cluster.engine cluster);
      cost;
      migrations = Plan.migration_count plan;
      suspends = Plan.suspend_count plan;
      resumes = Plan.resume_count plan;
      local_resumes = Plan.local_resume_count plan;
      runs = Plan.run_count plan;
      stops = Plan.stop_count plan;
      pools;
      failed = tally.t_failed;
      retries = tally.t_retries;
      timeouts = tally.t_timeouts;
      node_losses = tally.t_node_losses;
      failed_vms = List.rev tally.t_failed_vms;
      lost_nodes = List.rev tally.t_lost_nodes;
      aborted;
    }
  in
  Sim_log.debug (fun m -> m "%a" pp_record r);
  if !Obs.enabled then begin
    Obs.sim_span ~name:"sim.switch"
      ~args:
        [
          ("cost", Otrace.I cost); ("pools", Otrace.I pools);
          ("failed", Otrace.I r.failed); ("retries", Otrace.I r.retries);
        ]
      ~at_s:started_at ~dur_s:(duration r) ();
    Ometrics.incr (Ometrics.counter "sim.switches");
    Ometrics.observe
      (Ometrics.histogram "sim.switch_duration_s")
      (duration r)
  end;
  r

(* -- pool-based execution --------------------------------------------------- *)

let execute ?injector ?policy ?(abort_on_failure = false) ?emit ?switch
    cluster plan ~on_done =
  let injector, policy = resolve ?injector ?policy () in
  let engine = Cluster.engine cluster in
  let started_at = Engine.now engine in
  let cost = Plan.cost (Cluster.config cluster) plan in
  let pools = Array.of_list (Plan.pools plan) in
  let gap = Schedule.durations.pipeline_gap_s in
  let tally = mk_tally () in
  let rec run_pool i =
    if i >= Array.length pools then
      on_done
        (mk_record cluster plan ~started_at ~cost ~pools:(Array.length pools)
           ~tally ~aborted:false)
    else if abort_on_failure && tally.t_failed > 0 then
      (* stop at the pool boundary: the rest of the plan may depend on
         the failed actions — hand the salvage decision to the repair
         layer instead of blindly pushing on *)
      on_done
        (mk_record cluster plan ~started_at ~cost ~pools:(Array.length pools)
           ~tally ~aborted:true)
    else begin
      let actions = pools.(i) in
      let remaining = ref (List.length actions) in
      let finish_one _applied =
        decr remaining;
        if !remaining = 0 then begin
          (match emit with
          | Some f ->
            f
              (Jrecord.Pool_committed
                 {
                   switch = Option.value switch ~default:0;
                   pool = i;
                   at_s = Engine.now engine;
                 })
          | None -> ());
          run_pool (i + 1)
        end
      in
      (* pipeline offsets: the k-th suspend/resume starts k seconds in *)
      let k = ref 0 in
      List.iter
        (fun action ->
          let offset =
            if Schedule.is_pipelined action then begin
              let o = float_of_int !k *. gap in
              incr k;
              o
            end
            else 0.
          in
          ignore
            (Engine.schedule_after engine ~delay:offset (fun () ->
                 run_action ?emit ?switch ~pool:i cluster ~injector ~policy
                   ~tally action ~on_complete:finish_one)))
        actions;
      if actions = [] then run_pool (i + 1)
    end
  in
  run_pool 0

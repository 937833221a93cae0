(* The simulated cluster: node and VM entities, workload progress and
   contention.

   Execution model:
   - a vjob is *launched* when all of its VMs are Running for the first
     time (the paper starts the embedded application then);
   - a launched, running VM executes its phase program: Compute phases
     progress with the CPU share the node can give (full speed needs an
     entire processing unit), Idle phases progress with wall time;
   - a suspended VM is frozen (no progress at all);
   - context-switch operations touching a node decelerate its busy VMs
     (factor 1.3 local / 1.5 remote, section 2.3);
   - when every VM of a vjob exhausts its program the vjob is complete
     and its owner signals Entropy (the stop happens at the next loop
     iteration).

   Rates change only at discrete events (action start/end, phase end,
   launch, crash), and an event costs only the VMs it touches. Each
   mutator marks what it changed: [apply_action], [advance_phase] and
   [check_launch] the VMs, [register_op]/[unregister_op] the nodes whose
   contention factor moved. [recompute] then refreshes the touched VMs'
   contributions to the per-node totals and their readings, and re-rates
   the touched VMs plus every VM running on a node whose total,
   contention or capacity changed, in ascending VM id (the order a full
   scan would schedule their events in). Of those, only the VMs whose
   rate changed or that are [stale] (phase advanced, launched, or reset
   by a crash) bank progress and get a new phase-end event; a superseded
   event is cancelled: it stays queued until popped, but it neither runs
   nor counts as pending. [create] and [set_config] (a crash, a
   bookkeeping commit) mark every VM and run the same refresh.

   The readings are a persistent chunked vector: a recompute writes the
   changed ones through one edit, which copies only the chunks it
   writes, so a vector a caller holds never changes and shares every
   chunk that did not move with the next. *)

(* capture the simulator's own log source before [open Entropy_core]
   shadows it with the core's *)
module Sim_log = Log

open Entropy_core
module Program = Vworkload.Program

module Obs = Entropy_obs.Obs
module Metrics = Entropy_obs.Metrics

let m_recomputes = lazy (Metrics.counter "sim.recompute")
let m_rated = lazy (Metrics.counter "sim.recompute.rated")

type vm_rt = {
  vm : Vm.t;
  mutable phases : Program.t;   (* remaining program, head = current *)
  mutable launched : bool;
  mutable finished : bool;
  mutable last_sync : float;    (* [phases] is exact as of this instant *)
  mutable rate : float;         (* current phase progress per wall second *)
  mutable stale : bool;         (* phase advanced, launched or reset since
                                   the last recompute: reschedule even if
                                   the rate is unchanged *)
  mutable phase_end : Engine.handle option;  (* pending phase-end event *)
  (* what the VM adds to the per-node totals, as of the last recompute *)
  mutable cpu_node : int;       (* node its CPU counts on (Running), -1 *)
  mutable cpu : int;            (* its CPU demand there, 0 for none *)
  mutable busy : bool;          (* [is_busy] there *)
  mutable mem_node : int;       (* node holding its memory (Running,
                                   Sleeping_ram), -1 for none *)
  mutable touched : bool;       (* queued for the next recompute *)
}

type t = {
  engine : Engine.t;
  mutable config : Configuration.t;
  rts : vm_rt array;
  vjobs : Vjob.t array;
  owner : int array;            (* VM -> index in [vjobs], -1 for none *)
  programs : Vm.id -> Program.t;  (* original programs, for resubmission *)
  local_ops : int array;        (* per-node running local operations *)
  remote_ops : int array;
  totals : int array;           (* per-node CPU demand of running VMs *)
  mem_used : int array;         (* per-node memory, running + RAM-suspended *)
  busy_count : int array;       (* per-node VMs that [is_busy] *)
  running : int list array;     (* per-node VMs whose CPU counts there *)
  alive : bool array;           (* per-node; false after a crash *)
  completions : (Vjob.id, float) Hashtbl.t;
  queue : int array;            (* touched VMs, then the VMs to re-rate *)
  mutable queued : int;         (* [queue] prefix in use *)
  node_touched : bool array;
  touched_nodes : int array;    (* nodes to re-rate, first [nodes_touched] *)
  mutable nodes_touched : int;
  mutable readings : int Chunked.t;  (* [cpu_readings] *)
  mutable on_change : unit -> unit;
}

let engine t = t.engine
let config t = t.config
let now t = Engine.now t.engine
let vjobs t = Array.to_list t.vjobs

let on_change t f = t.on_change <- f

(* -- touched set ---------------------------------------------------------- *)

let touch_vm t vm_id =
  let rt = t.rts.(vm_id) in
  if not rt.touched then begin
    rt.touched <- true;
    t.queue.(t.queued) <- vm_id;
    t.queued <- t.queued + 1
  end

let touch_node t node_id =
  if not t.node_touched.(node_id) then begin
    t.node_touched.(node_id) <- true;
    t.touched_nodes.(t.nodes_touched) <- node_id;
    t.nodes_touched <- t.nodes_touched + 1
  end

(* -- demand --------------------------------------------------------------- *)

(* What the VM asks for (hundredths of a core). Defined for every
   non-terminated VM — the decision module also needs the demand a
   sleeping or waiting VM would have if running. *)
let vm_demand_rt rt =
  if rt.finished then Program.idle_demand
  else if not rt.launched then Program.idle_demand
  else Program.demand rt.phases

let vm_demand t vm_id = vm_demand_rt t.rts.(vm_id)

let demand t =
  Demand.of_fn ~vm_count:(Array.length t.rts) (fun vm_id ->
      match Configuration.state t.config vm_id with
      | Configuration.Terminated -> 0
      | Configuration.Running _ | Configuration.Sleeping _
      | Configuration.Sleeping_ram _ | Configuration.Waiting ->
        vm_demand t vm_id)

(* Monitoring reading: same vector. Every change to a state or a phase
   is followed by a recompute, which refreshes the touched VMs'
   entries. *)
let cpu_readings t = t.readings

let rate t vm_id = t.rts.(vm_id).rate

(* A launched VM computing at full speed, wherever it is. *)
let is_busy rt =
  rt.launched && (not rt.finished)
  && match rt.phases with Program.Compute _ :: _ -> true | _ -> false

(* A node is busy when it hosts a running busy VM (other than
   [except]). Every state or phase change is followed by a recompute,
   so its per-node counts and the VMs' contributions are current. *)
let busy ?except t node_id =
  let own =
    match except with
    | Some e ->
      let rt = t.rts.(e) in
      if rt.busy && rt.cpu_node = node_id then 1 else 0
    | None -> 0
  in
  t.busy_count.(node_id) - own > 0

let overloaded t =
  let nodes = Configuration.nodes t.config in
  let rec from i =
    i < Array.length nodes
    && (t.totals.(i) > Node.cpu_capacity nodes.(i)
       || t.mem_used.(i) > Node.memory_mb nodes.(i)
       || from (i + 1))
  in
  from 0

(* -- contention ------------------------------------------------------------ *)

let node_decel t node_id =
  if t.remote_ops.(node_id) > 0 then Perf_model.decel_remote
  else if t.local_ops.(node_id) > 0 then Perf_model.decel_local
  else 1.

(* A node's VMs need re-rating only when its factor moves. *)
let add_ops t ~nodes ~local delta =
  List.iter
    (fun n ->
      let before = node_decel t n in
      if local then t.local_ops.(n) <- t.local_ops.(n) + delta
      else t.remote_ops.(n) <- t.remote_ops.(n) + delta;
      if node_decel t n <> before then touch_node t n)
    nodes

let register_op t ~nodes ~local = add_ops t ~nodes ~local 1
let unregister_op t ~nodes ~local = add_ops t ~nodes ~local (-1)

(* -- progress -------------------------------------------------------------- *)

let sync_vm t rt =
  let dt = now t -. rt.last_sync in
  if dt > 0. && rt.rate > 0. then begin
    (match rt.phases with
    | Program.Compute w :: rest ->
      rt.phases <- Program.Compute (w -. (rt.rate *. dt)) :: rest
    | Program.Idle d :: rest ->
      rt.phases <- Program.Idle (d -. (rt.rate *. dt)) :: rest
    | [] -> ())
  end;
  rt.last_sync <- now t

let vjob_of_vm t vm_id =
  let i = t.owner.(vm_id) in
  if i < 0 then None else Some t.vjobs.(i)

let check_vjob_completion t rt =
  match vjob_of_vm t rt.vm.Vm.id with
  | None -> ()
  | Some vj ->
    let all_done =
      List.for_all (fun vm_id -> t.rts.(vm_id).finished) (Vjob.vms vj)
    in
    if all_done && not (Hashtbl.mem t.completions (Vjob.id vj)) then
      Hashtbl.replace t.completions (Vjob.id vj) (now t)

let completions t =
  Hashtbl.fold (fun id time acc -> (id, time) :: acc) t.completions []
  |> List.sort compare

let completed t vjob = Hashtbl.mem t.completions (Vjob.id vjob)
let completion_count t = Hashtbl.length t.completions

let cancel_phase_end t rt =
  Option.iter (Engine.cancel t.engine) rt.phase_end;
  rt.phase_end <- None

(* Bring a touched VM's contribution to the per-node totals and its
   reading (through the recompute's edit of the readings) up to date;
   mark the nodes whose CPU total it moved. *)
let refresh t readings vm_id =
  let rt = t.rts.(vm_id) in
  let state = Configuration.state t.config vm_id in
  let cpu_node, mem_node =
    match state with
    | Configuration.Running n -> (n, n)
    | Configuration.Sleeping_ram n -> (-1, n)
    | Configuration.Waiting | Configuration.Sleeping _
    | Configuration.Terminated -> (-1, -1)
  in
  let cpu = if cpu_node < 0 then 0 else vm_demand_rt rt in
  let busy = cpu_node >= 0 && is_busy rt in
  if rt.busy then
    t.busy_count.(rt.cpu_node) <- t.busy_count.(rt.cpu_node) - 1;
  if busy then t.busy_count.(cpu_node) <- t.busy_count.(cpu_node) + 1;
  rt.busy <- busy;
  if cpu_node <> rt.cpu_node || cpu <> rt.cpu then begin
    if rt.cpu_node >= 0 then begin
      t.totals.(rt.cpu_node) <- t.totals.(rt.cpu_node) - rt.cpu;
      touch_node t rt.cpu_node
    end;
    if cpu_node >= 0 then begin
      t.totals.(cpu_node) <- t.totals.(cpu_node) + cpu;
      touch_node t cpu_node
    end;
    if cpu_node <> rt.cpu_node then begin
      if rt.cpu_node >= 0 then
        t.running.(rt.cpu_node) <-
          List.filter (fun (v : int) -> v <> vm_id) t.running.(rt.cpu_node);
      if cpu_node >= 0 then t.running.(cpu_node) <- vm_id :: t.running.(cpu_node)
    end;
    rt.cpu_node <- cpu_node;
    rt.cpu <- cpu
  end;
  if mem_node <> rt.mem_node then begin
    let mem = Vm.memory_mb rt.vm in
    if rt.mem_node >= 0 then
      t.mem_used.(rt.mem_node) <- t.mem_used.(rt.mem_node) - mem;
    if mem_node >= 0 then t.mem_used.(mem_node) <- t.mem_used.(mem_node) + mem;
    rt.mem_node <- mem_node
  end;
  Chunked.write readings vm_id
    (match state with Configuration.Terminated -> 0 | _ -> vm_demand_rt rt)

let rate_of t rt =
  if rt.finished || not rt.launched then 0.
  else
    match rt.cpu_node with
    | -1 -> 0.
    | node -> (
      match rt.phases with
      | Program.Idle _ :: _ -> 1.
      | Program.Compute _ :: _ ->
        let cap = float_of_int (Node.cpu_capacity (Configuration.node t.config node)) in
        let total = float_of_int (max t.totals.(node) 1) in
        let scale = Float.min 1. (cap /. total) in
        let alloc = float_of_int (vm_demand_rt rt) *. scale /. 100. in
        alloc /. node_decel t node
      | [] -> 0.)

(* Ascending VM id: insertion sort, as the prefix is short and mostly
   sorted (a full refresh queues the ids in order). *)
let sort_prefix a n =
  for i = 1 to n - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let rec advance_phase t vm_id () =
  let rt = t.rts.(vm_id) in
  rt.phase_end <- None;
  sync_vm t rt;
  (match rt.phases with
  | [] -> ()
  | _ :: rest -> rt.phases <- Program.normalize rest);
  if Program.is_empty rt.phases then begin
    rt.finished <- true;
    check_vjob_completion t rt
  end;
  rt.stale <- true;
  (* the VM's demand may have changed, and with it the share of every
     VM on its node: recompute, which reschedules only the VMs whose
     rate moved *)
  touch_vm t vm_id;
  recompute t

(* Bank the progress made at the old rate, switch to [rate] and replace
   the pending phase-end event. *)
and set_rate t vm_id rt rate =
  sync_vm t rt;
  cancel_phase_end t rt;
  rt.rate <- rate;
  rt.stale <- false;
  if rate > 0. then begin
    let remaining =
      match rt.phases with
      | Program.Compute w :: _ -> w
      | Program.Idle d :: _ -> d
      | [] -> 0.
    in
    let delay = if remaining > 0. then remaining /. rate else 0. in
    rt.phase_end <-
      Some (Engine.schedule_after t.engine ~delay (advance_phase t vm_id))
  end

(* Refresh the touched VMs, queue every VM running on a touched node,
   and re-rate the queue in ascending VM id; reschedule the phase end of
   those whose rate changed or that are stale. *)
and recompute t =
  t.readings <-
    Chunked.edit t.readings (fun readings ->
        for i = 0 to t.queued - 1 do
          refresh t readings t.queue.(i)
        done);
  for i = 0 to t.nodes_touched - 1 do
    let node_id = t.touched_nodes.(i) in
    t.node_touched.(node_id) <- false;
    List.iter (touch_vm t) t.running.(node_id)
  done;
  t.nodes_touched <- 0;
  let rated = t.queued in
  sort_prefix t.queue rated;
  for i = 0 to rated - 1 do
    let vm_id = t.queue.(i) in
    let rt = t.rts.(vm_id) in
    rt.touched <- false;
    let rate = rate_of t rt in
    if rt.stale || rate <> rt.rate then set_rate t vm_id rt rate
  done;
  t.queued <- 0;
  if !Obs.enabled then begin
    Metrics.incr (Lazy.force m_recomputes);
    Metrics.add (Lazy.force m_rated) rated
  end;
  t.on_change ()

(* Launch the vjob if its VMs are all running for the first time. *)
let check_launch t vj =
  let vms = Vjob.vms vj in
  let all_running =
    List.for_all
      (fun vm_id ->
        match Configuration.state t.config vm_id with
        | Configuration.Running _ -> true
        | _ -> false)
      vms
  in
  let any_unlaunched =
    List.exists (fun vm_id -> not t.rts.(vm_id).launched) vms
  in
  if all_running && any_unlaunched then
    List.iter
      (fun vm_id ->
        let rt = t.rts.(vm_id) in
        if not rt.launched then begin
          rt.launched <- true;
          rt.last_sync <- now t;
          rt.stale <- true;
          touch_vm t vm_id;
          if Program.is_empty rt.phases then begin
            rt.finished <- true;
            check_vjob_completion t rt
          end
        end)
      vms

(* Any VM may have changed, and any node's capacity: re-rate them all. *)
let set_config t config =
  t.config <- config;
  Array.iter (check_launch t) t.vjobs;
  for vm_id = 0 to Array.length t.rts - 1 do
    touch_vm t vm_id
  done;
  recompute t

(* Only the owner of the action's VM can launch: every other vjob's VMs
   kept their states, and a vjob whose VMs all run was launched by the
   check that followed the change completing it. *)
let apply_action t action =
  let vm_id = Action.vm action in
  t.config <- Action.apply t.config action;
  touch_vm t vm_id;
  if t.owner.(vm_id) >= 0 then check_launch t t.vjobs.(t.owner.(vm_id));
  recompute t

(* -- node crashes ----------------------------------------------------------- *)

let node_alive t node_id = t.alive.(node_id)

(* A permanent node crash: the node keeps its identity but loses all
   capacity. Every incomplete vjob with a VM running on the node — or an
   image stored there — loses its work: all of its VMs go back to
   Waiting with their original program, so the next RJSP round
   resubmits the vjob from scratch. VMs of completed vjobs still parked
   on the node just die (Terminated). Returns the resubmitted vjobs. *)
let crash_node t node_id =
  if not t.alive.(node_id) then []
  else begin
    t.alive.(node_id) <- false;
    let old_config = t.config in
    let on_node vm_id =
      match Configuration.state old_config vm_id with
      | Configuration.Running n
      | Configuration.Sleeping n
      | Configuration.Sleeping_ram n -> n = node_id
      | Configuration.Waiting | Configuration.Terminated -> false
    in
    let affected =
      Array.to_list t.vjobs
      |> List.filter (fun vj ->
             (not (Hashtbl.mem t.completions (Vjob.id vj)))
             && List.exists on_node (Vjob.vms vj))
    in
    let nodes = Array.copy (Configuration.nodes old_config) in
    nodes.(node_id) <- Node.crashed nodes.(node_id);
    let config = ref (Configuration.with_nodes old_config nodes) in
    List.iter
      (fun vj ->
        List.iter
          (fun vm_id ->
            match Configuration.state !config vm_id with
            | Configuration.Terminated -> ()
            | _ ->
              config := Configuration.set_state !config vm_id Configuration.Waiting;
              let rt = t.rts.(vm_id) in
              rt.phases <- Program.normalize (t.programs vm_id);
              rt.launched <- false;
              rt.finished <- false;
              rt.rate <- 0.;
              rt.stale <- true;
              cancel_phase_end t rt;
              rt.last_sync <- now t)
          (Vjob.vms vj))
      affected;
    (* whatever else was on the node (completed vjobs' idle VMs) is gone *)
    for vm_id = 0 to Array.length t.rts - 1 do
      if on_node vm_id then
        match Configuration.state !config vm_id with
        | Configuration.Waiting | Configuration.Terminated -> ()
        | _ ->
          config := Configuration.set_state !config vm_id Configuration.Terminated
    done;
    Sim_log.info (fun m ->
        m "node N%d crashed at %.0fs: %d vjobs reset for resubmission"
          node_id (now t) (List.length affected));
    if !Obs.enabled then
      Obs.sim_instant ~at_s:(now t)
        ~args:[ ("node", Entropy_obs.Trace.I node_id) ]
        "fault.node_crash";
    set_config t !config;
    List.map Vjob.id affected
  end

(* -- construction ----------------------------------------------------------- *)

let create ~engine ~config ~vjobs ~programs () =
  let rts =
    Array.map
      (fun vm ->
        {
          vm;
          phases = Program.normalize (programs (Vm.id vm));
          launched = false;
          finished = false;
          last_sync = Engine.now engine;
          rate = 0.;
          stale = false;
          phase_end = None;
          cpu_node = -1;
          cpu = 0;
          busy = false;
          mem_node = -1;
          touched = false;
        })
      (Configuration.vms config)
  in
  let owner = Array.make (Array.length rts) (-1) in
  List.iteri
    (fun i vj -> List.iter (fun vm_id -> owner.(vm_id) <- i) (Vjob.vms vj))
    vjobs;
  let n = Configuration.node_count config in
  let t =
    {
      engine;
      config;
      rts;
      vjobs = Array.of_list vjobs;
      owner;
      programs;
      local_ops = Array.make n 0;
      remote_ops = Array.make n 0;
      totals = Array.make n 0;
      mem_used = Array.make n 0;
      busy_count = Array.make n 0;
      running = Array.make n [];
      alive = Array.make n true;
      completions = Hashtbl.create 16;
      queue = Array.make (Array.length rts) 0;
      queued = 0;
      node_touched = Array.make n false;
      touched_nodes = Array.make n 0;
      nodes_touched = 0;
      readings = Chunked.make (Array.length rts) 0;
      on_change = (fun () -> ());
    }
  in
  set_config t config;
  t

let all_complete t =
  Array.for_all (fun vj -> Hashtbl.mem t.completions (Vjob.id vj)) t.vjobs

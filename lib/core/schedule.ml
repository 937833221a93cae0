(* Timed view of a reconfiguration plan: estimated start/finish of every
   action, for duration-aware reporting and decisions without running
   the full simulator.

   The duration model is the measurements of section 2.3 / Figure 3 and
   the one table of them: the simulator's [Perf_model] derives its
   contention-free durations from it and adds only contention. Boot and
   shutdown are flat; migrate/suspend/resume are linear in the VM's
   memory; a remote resume moves the image first (scp).

   Sequencing follows the executor: pools run one after the other; inside
   a pool actions start together except suspends/resumes, pipelined one
   second apart. *)

type durations = {
  boot_s : float;
  shutdown_s : float;
  migrate_mb_s : float;
  migrate_latency_s : float;
  suspend_mb_s : float;
  resume_mb_s : float;
  transfer_mb_s : float;    (* remote image push/fetch (scp) *)
  pipeline_gap_s : float;
  ram_suspend_s : float;
  ram_resume_s : float;
}

let durations =
  {
    boot_s = 6.;
    shutdown_s = 25.;
    migrate_mb_s = 85.;
    migrate_latency_s = 1.8;
    suspend_mb_s = 21.;
    resume_mb_s = 26.;
    transfer_mb_s = 22.;
    pipeline_gap_s = 1.;
    ram_suspend_s = 1.;
    ram_resume_s = 0.5;
  }

let action_duration config action =
  let mem vm = float_of_int (Vm.memory_mb (Configuration.vm config vm)) in
  match action with
  | Action.Run _ -> durations.boot_s
  | Action.Stop _ -> durations.shutdown_s
  | Action.Migrate { vm; _ } ->
    durations.migrate_latency_s +. (mem vm /. durations.migrate_mb_s)
  | Action.Suspend { vm; _ } -> mem vm /. durations.suspend_mb_s
  | Action.Resume { vm; src; dst } ->
    let read = mem vm /. durations.resume_mb_s in
    if src = dst then read else read +. (mem vm /. durations.transfer_mb_s)
  | Action.Suspend_ram _ -> durations.ram_suspend_s
  | Action.Resume_ram _ -> durations.ram_resume_s

type entry = { action : Action.t; start : float; finish : float }

type t = { entries : entry list; makespan : float }

let entries t = t.entries
let makespan t = t.makespan

let is_pipelined = function
  | Action.Suspend _ | Action.Resume _ | Action.Suspend_ram _
  | Action.Resume_ram _ -> true
  | Action.Run _ | Action.Stop _ | Action.Migrate _ -> false

let of_plan config plan =
  let entries = ref [] in
  let clock = ref 0. in
  List.iter
    (fun pool ->
      let pool_start = !clock in
      let pool_end = ref pool_start in
      let pipelined = ref 0 in
      List.iter
        (fun action ->
          let offset =
            if is_pipelined action then begin
              let o = float_of_int !pipelined *. durations.pipeline_gap_s in
              incr pipelined;
              o
            end
            else 0.
          in
          let start = pool_start +. offset in
          let finish = start +. action_duration config action in
          entries := { action; start; finish } :: !entries;
          if finish > !pool_end then pool_end := finish)
        pool;
      clock := !pool_end)
    (Plan.pools plan);
  { entries = List.rev !entries; makespan = !clock }

let entry_for t vm =
  List.find_opt (fun e -> Action.vm e.action = vm) t.entries

let pp ppf t =
  List.iter
    (fun e ->
      Fmt.pf ppf "%7.1f -> %7.1f  %a@." e.start e.finish Action.pp e.action)
    t.entries;
  Fmt.pf ppf "estimated switch duration: %.1f s@." t.makespan

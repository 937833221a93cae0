(* Duration model of the VM context-switch operations, calibrated to the
   measurements of section 2.3 / Figure 3 of the paper:

   - booting a VM takes ~6 s and a clean shutdown ~25 s, independent of
     the memory size;
   - migration, suspend and resume durations grow linearly with the
     memory allocated to the VM;
   - performing the suspend or resume remotely (image pushed with
     scp/rsync) roughly doubles the duration;
   - while an operation manipulates a VM on a node hosting busy VMs,
     both the operation and the busy VMs slow down: deceleration ~1.3
     for local operations, ~1.5 for remote ones (up to 50% loss).

   The rates reproduce the figure's end points:
     migrate(2048 MB)        ~ 26 s
     suspend local(2048)     ~ 100 s   suspend+scp(2048) ~ 195 s
     resume local(2048)      ~ 80 s    resume remote     ~ 160 s *)

open Entropy_core

type transfer = Local | Scp | Rsync

(* The contention-free durations are [Schedule.durations], the one
   Figure 3 table; this module adds the rsync push variant that
   [figure3_rows] prints and the deceleration under contention. *)
let d = Schedule.durations
let rsync_mb_s = 24.           (* rsync push rate; scp is [transfer_mb_s] *)
let decel_local = 1.3          (* deceleration with co-hosted busy VMs *)
let decel_remote = 1.5

let mb = float_of_int

(* -- raw durations (no contention) ---------------------------------------- *)

let boot = d.boot_s
let clean_shutdown = d.shutdown_s

let migrate ~memory_mb =
  d.migrate_latency_s +. (mb memory_mb /. d.migrate_mb_s)

let push ~memory_mb = function
  | Local -> 0.
  | Scp -> mb memory_mb /. d.transfer_mb_s
  | Rsync -> mb memory_mb /. rsync_mb_s

let suspend ~memory_mb ~transfer =
  (mb memory_mb /. d.suspend_mb_s) +. push ~memory_mb transfer

let resume ~memory_mb ~transfer =
  (mb memory_mb /. d.resume_mb_s) +. push ~memory_mb transfer

(* -- contention ------------------------------------------------------------ *)

(* Deceleration factor applied to an operation (and, symmetrically, to
   the busy VMs of the nodes it touches) while it runs. *)
let deceleration ~local ~busy_coresident =
  if not busy_coresident then 1.
  else if local then decel_local
  else decel_remote

(* -- durations of reconfiguration actions ---------------------------------- *)

(* [busy node] tells whether the node hosts at least one busy VM other
   than the manipulated one. Suspend-to-RAM operations are
   pause/unpause: no image transfer, negligible contention impact. *)
let action_duration ~busy action config =
  let raw = Schedule.action_duration config action in
  match action with
  | Action.Run _ | Action.Stop _ | Action.Suspend_ram _ | Action.Resume_ram _
    -> raw
  | Action.Migrate { src; dst; _ } ->
    raw *. deceleration ~local:false ~busy_coresident:(busy src || busy dst)
  | Action.Suspend { host; _ } ->
    raw *. deceleration ~local:true ~busy_coresident:(busy host)
  | Action.Resume { src; dst; _ } ->
    raw *. deceleration ~local:(src = dst) ~busy_coresident:(busy src || busy dst)

(* Figure 3 sweep: durations for the paper's three memory sizes. *)
let figure3_memory_sizes = [ 512; 1024; 2048 ]

let figure3_rows () =
  List.map
    (fun m ->
      ( m,
        [
          ("start/run", boot);
          ("stop/shutdown", clean_shutdown);
          ("migrate", migrate ~memory_mb:m);
          ("suspend local", suspend ~memory_mb:m ~transfer:Local);
          ("suspend local+scp", suspend ~memory_mb:m ~transfer:Scp);
          ("suspend local+rsync", suspend ~memory_mb:m ~transfer:Rsync);
          ("resume local", resume ~memory_mb:m ~transfer:Local);
          ("resume local+scp", resume ~memory_mb:m ~transfer:Scp);
          ("resume local+rsync", resume ~memory_mb:m ~transfer:Rsync);
        ] ))
    figure3_memory_sizes

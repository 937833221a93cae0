(* The static-allocation baseline of section 5.2: each vjob is submitted
   to a traditional RMS as a rigid job asking for enough nodes to host
   its VMs (one full processing unit per computing VM) for an estimated
   walltime. This is the FCFS scheduler of Figure 12, whose resource
   usage (Figure 13) and completion time are compared against Entropy's
   dynamic consolidation. *)

module Trace = Vworkload.Trace
module Program = Vworkload.Program

(* Nodes needed to host the trace's VMs with every VM granted a full
   processing unit (the user's conservative request): FFD bin count. *)
let nodes_required ~node_cpu ~node_mem trace =
  let items = List.sort (fun a b -> Int.compare b a) trace.Trace.memories in
  let bins = ref [] in
  (* first-fit decreasing over (free_cpu, free_mem) bins *)
  let place mem =
    let rec ff acc = function
      | [] -> bins := List.rev ((node_cpu - 100, node_mem - mem) :: acc)
      | (fc, fm) :: rest ->
        if fc >= 100 && fm >= mem then
          bins := List.rev_append acc ((fc - 100, fm - mem) :: rest)
        else ff ((fc, fm) :: acc) rest
    in
    ff [] !bins
  in
  List.iter place items;
  List.length !bins

let default_overestimate = 1.5

(* Build the rigid job a user would submit for this trace. *)
let job_of_trace ~node_cpu ~node_mem ~id trace =
  let actual = Trace.min_duration trace in
  Job.make ~id ~name:trace.Trace.name
    ~nodes_required:(nodes_required ~node_cpu ~node_mem trace)
    ~walltime:(actual *. default_overestimate)
    ~actual ()

type run = {
  schedule : Rms.schedule;
  traces : (Job.t * Trace.t) list;
}

let run ~capacity ~node_cpu ~node_mem traces =
  let jobs_traces =
    List.mapi
      (fun i t -> (job_of_trace ~node_cpu ~node_mem ~id:i t, t))
      traces
  in
  let schedule = Rms.fcfs ~capacity (List.map fst jobs_traces) in
  { schedule; traces = jobs_traces }

let makespan run = run.schedule.Rms.makespan

(* -- utilization series (the Figure 13 baseline curves) ------------------- *)

(* CPU demand of a program at [offset] seconds after launch, assuming a
   dedicated core (compute phases run at full speed). *)
let rec demand_at program offset =
  match program with
  | [] -> 0
  | Program.Compute w :: rest ->
    if offset < w then Program.compute_demand else demand_at rest (offset -. w)
  | Program.Idle d :: rest ->
    if offset < d then Program.idle_demand else demand_at rest (offset -. d)

let sample run time =
  let mem = ref 0 and cpu = ref 0 in
  List.iter
    (fun ((job : Job.t), trace) ->
      match
        List.find_opt
          (fun (p : Job.placement) -> p.Job.job.Job.id = job.Job.id)
          run.schedule.Rms.placements
      with
      | None -> ()
      | Some p ->
        let offset = time -. p.Job.start in
        if offset >= 0. && offset < job.Job.actual then begin
          List.iter (fun m -> mem := !mem + m) trace.Trace.memories;
          List.iter
            (fun prog -> cpu := !cpu + demand_at prog offset)
            trace.Trace.programs
        end)
    run.traces;
  (!mem, !cpu)

let series ?(period = 30.) run =
  let horizon = makespan run in
  let rec go t acc =
    if t > horizon then List.rev acc else go (t +. period) ((t, sample run t) :: acc)
  in
  go 0. []

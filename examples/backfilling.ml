(* The Figure 1 story: why reservation-based scheduling wastes
   resources, and how much a preemption-capable scheduler can win.

   Four jobs on a 10-node cluster, as in the paper's Figure 1:
   strict FCFS leaves big holes, EASY backfilling fills some, and
   a preemption-capable scheduler (what the cluster-wide context switch
   enables) approaches the ideal packing.

     dune exec examples/backfilling.exe *)

module Job = Batch.Job
module Rms = Batch.Rms

let gantt ~capacity (s : Rms.schedule) =
  ignore capacity;
  let width = 56 in
  let cell = s.Rms.makespan /. float_of_int width in
  List.iter
    (fun (p : Job.placement) ->
      let line =
        String.init width (fun i ->
            let t = float_of_int i *. cell in
            if t >= p.Job.start && t < Job.slot_end p then '#' else ' ')
      in
      Printf.printf "  %-6s|%s| %d nodes x %.0fs\n" p.Job.job.Job.name line
        p.Job.job.Job.nodes_required p.Job.job.Job.walltime)
    s.Rms.placements

let () =
  (* 1st job: wide and short; 2nd and 3rd: narrow and long; 4th: wide —
     the classic backfilling scenario *)
  let mk id name nodes walltime =
    Job.make ~id ~name ~nodes_required:nodes ~walltime ~actual:walltime ()
  in
  let jobs =
    [ mk 0 "job1" 6 120.; mk 1 "job2" 6 60.; mk 2 "job3" 4 60.; mk 3 "job4" 4 60. ]
  in
  let capacity = 10 in

  let strict = Rms.fcfs ~capacity jobs in
  Printf.printf "strict FCFS (makespan %.0fs):\n" strict.Rms.makespan;
  gantt ~capacity strict;

  let backfill = Rms.backfill ~capacity jobs in
  Printf.printf "\nFCFS + EASY backfilling (makespan %.0fs):\n"
    backfill.Rms.makespan;
  gantt ~capacity backfill;

  let bound = Rms.preemptive_lower_bound ~capacity jobs in
  Printf.printf
    "\nwith preemption (cluster-wide context switches), the ideal\n\
     makespan bound is %.0fs — jobs can run partially whenever room\n\
     exists and be suspended when a reservation needs the nodes.\n"
    bound

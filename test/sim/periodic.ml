(* Prints the periodic control loop's outcome on the paper's section 5.2
   instance (8 NGB class-W vjobs of 9 VMs on 11 nodes) at the trace
   bases of the benchmark's ngb-cp panel, plus one staggered run. The
   CP search is capped at 5000 nodes, so the plans do not depend on host
   speed. `dune runtest` diffs the output against periodic.expected. *)

open Entropy_core

let panel = [ 0; 1; 8; 57; 71; 155; 302; 358; 407; 456 ]

let testbed =
  Array.init 11 (fun i -> Node.testbed ~id:i ~name:(Printf.sprintf "N%d" i))

let traces base =
  List.init 8 (fun i ->
      Vworkload.Trace.make ~seed:(base + i) ~vm_count:9
        (List.nth Vworkload.Nasgrid.families (i mod 4))
        Vworkload.Nasgrid.W)

let run ?arrival_spacing base =
  let decision = Decision.consolidation ~cp_timeout:60. ~cp_node_limit:5000 () in
  Vsim.Runner.run_entropy ~decision ?arrival_spacing ~nodes:testbed
    ~traces:(traces base) ()

let print_run ~series title (r : Vsim.Runner.result) =
  Printf.printf "%s: makespan %.17g, %d iterations, %d switches\n" title
    r.Vsim.Runner.makespan r.Vsim.Runner.iterations
    (List.length r.Vsim.Runner.switches);
  (* the fig11 row of every switch, in execution order *)
  List.iter
    (fun (s : Vsim.Executor.record) ->
      Printf.printf
        "  switch cost %d duration %.17g migr %d susp %d resume %d run %d stop \
         %d pools %d\n"
        s.Vsim.Executor.cost (Vsim.Executor.duration s)
        s.Vsim.Executor.migrations s.Vsim.Executor.suspends
        s.Vsim.Executor.resumes s.Vsim.Executor.runs s.Vsim.Executor.stops
        s.Vsim.Executor.pools)
    r.Vsim.Runner.switches;
  List.iter
    (fun (vj, t) -> Printf.printf "  done %s at %.17g\n" (Vjob.name vj) t)
    r.Vsim.Runner.completions;
  if series then
    List.iter
      (fun (p : Vsim.Metrics.point) ->
        Printf.printf "  sample %.17g mem %d demand %.17g used %.17g vms %d nodes %d\n"
          p.Vsim.Metrics.time p.Vsim.Metrics.mem_used_mb
          p.Vsim.Metrics.cpu_demand_pct p.Vsim.Metrics.cpu_used_pct
          p.Vsim.Metrics.running_vms p.Vsim.Metrics.active_nodes)
      r.Vsim.Runner.series

let () =
  List.iter
    (fun base ->
      print_run ~series:(base = 0) (Printf.sprintf "base %d" base) (run base))
    (List.map (fun k -> 8 * k) panel);
  (* the only run whose loop waits a period with nothing submitted *)
  print_run ~series:false "base 0, one vjob every 120 s"
    (run ~arrival_spacing:120. 0)

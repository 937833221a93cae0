(* Conformance of the real discrete-event executor with the abstract
   model, CHESS-style: the plan runs on a real Cluster + Executor, with
   the engine's schedule hook enumerating every tie-break order of
   simultaneous events (depth-first over the choice tree, bounded by a
   run budget). Each run's journal records must be a path of the model
   ([Model.accepts], which evaluates the invariant catalogue along it)
   that ends where the cluster does, with no action failed. *)

open Entropy_core
module Engine = Vsim.Engine
module Cluster = Vsim.Cluster
module Executor = Vsim.Executor
module Record = Entropy_journal.Record

type outcome = {
  runs : int;
  decision_points : int;
  complete : bool;  (* the whole choice tree fit in the run budget *)
  violations : (Invariant.violation * int list) list;
      (* violation plus the run's tie-break choices, root first *)
}

(* No fault is injected into a run, so a failed action, which the model
   accepts from a faulty cluster, means the executor or the cluster
   disagrees with the model. So does an aborted end: the model accepts
   one only after a failure. *)
let conforms ctx records ~final =
  match Model.accepts ctx records with
  | Error v -> [ v ]
  | Ok st ->
    let violation invariant detail =
      [ { Invariant.invariant; step = st.Model.nsteps; detail } ]
    in
    if Model.want ctx Termination && Array.mem Model.Failed st.Model.status
    then violation Termination "sim: action failed in a fault-free run"
    else if
      Model.want ctx Write_ahead
      && not (Configuration.equal st.Model.config final)
    then
      violation Write_ahead
        "sim: journal and cluster end in different configurations"
    else []

(* One run under a fixed choice prefix (root-first); choices beyond the
   prefix default to 0 (FIFO). Returns the decision trace deepest-first
   as [(choice, arity)] plus the violations seen. *)
let one_run ctx prefix =
  let engine = Engine.create () in
  let trace = ref [] in
  let rem = ref prefix in
  Engine.set_chooser engine
    (Some
       (fun n ->
         let c =
           match !rem with
           | c :: tl ->
             rem := tl;
             if c < 0 || c >= n then 0 else c
           | [] -> 0
         in
         trace := (c, n) :: !trace;
         c));
  (* VMs run forever: the cluster stays busy but no vjob completes (or
     terminates a VM) during the switch *)
  let programs _ = [ Vworkload.Program.Compute 1e9 ] in
  let cluster =
    Cluster.create ~engine ~config:ctx.Model.source ~vjobs:ctx.Model.vjobs
      ~programs ()
  in
  let rev_records = ref [] in
  let result = ref None in
  Executor.execute
    ~emit:(fun r -> rev_records := r :: !rev_records)
    ~switch:ctx.Model.switch cluster ctx.Model.plan
    ~on_done:(fun r -> result := Some r);
  let steps = ref 0 in
  while !result = None && !steps < 1_000_000 && Engine.step engine do
    incr steps
  done;
  (* the runner, not the executor, closes the switch; a switch the
     executor never completed closes unaborted, which the model
     refuses *)
  let aborted =
    Option.fold ~none:false ~some:Executor.(fun r -> r.aborted) !result
  in
  let at_s = Engine.now engine in
  let records =
    List.rev
      (Record.Switch_end { switch = ctx.Model.switch; at_s; aborted }
      :: !rev_records)
  in
  let viols = conforms ctx records ~final:(Cluster.config cluster) in
  (!trace, viols)

(* Next DFS prefix: bump the deepest decision point that still has an
   untried alternative, drop everything below it. *)
let rec bump = function
  | [] -> None
  | (c, n) :: above ->
    if c + 1 < n then Some (List.rev_map fst above @ [ c + 1 ])
    else bump above

let run ctx ~max_runs =
  if max_runs <= 0 then
    { runs = 0; decision_points = 0; complete = true; violations = [] }
  else begin
    let runs = ref 0 in
    let decision_points = ref 0 in
    let violations = ref [] in
    let rec loop prefix =
      if !runs >= max_runs then false
      else begin
        incr runs;
        let trace, viols = one_run ctx prefix in
        decision_points := !decision_points + List.length trace;
        let choices = List.rev_map fst trace in
        List.iter (fun v -> violations := (v, choices) :: !violations) viols;
        match bump trace with None -> true | Some p -> loop p
      end
    in
    let complete = loop [] in
    {
      runs = !runs;
      decision_points = !decision_points;
      complete;
      violations = List.rev !violations;
    }
  end

(* Conformance of the real discrete-event executor with the abstract
   model, CHESS-style: the plan runs on a real Cluster + Executor, with
   the engine's new schedule hook enumerating every tie-break order of
   simultaneous events (depth-first over the choice tree, bounded by a
   run budget). Each run is checked for mid-switch capacity, exact
   termination in the target, and a well-formed write-ahead journal
   trace. *)

open Entropy_core
module Engine = Vsim.Engine
module Cluster = Vsim.Cluster
module Executor = Vsim.Executor
module Record = Entropy_journal.Record
module Recovery = Entropy_journal.Recovery

type outcome = {
  runs : int;
  decision_points : int;
  complete : bool;  (* the whole choice tree fit in the run budget *)
  violations : (Invariant.violation * int list) list;
      (* violation plus the run's tie-break choices, root first *)
}

let violation invariant step detail = { Invariant.invariant; step; detail }

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
  let rev_records = ref [ Model.begin_record ctx ] in
  let result = ref None in
  Executor.execute
    ~emit:(fun r -> rev_records := r :: !rev_records)
    ~switch:ctx.Model.switch cluster ctx.Model.plan
    ~on_done:(fun r -> result := Some r);
  let viols = ref [] in
  let steps = ref 0 in
  let check_capacity () =
    if Model.want ctx Invariant.Capacity then begin
      let config = Cluster.config cluster in
      let cpu, mem = Configuration.loads config ctx.Model.demand in
      Array.iteri
        (fun node c ->
          if
            c > ctx.Model.allowed_cpu.(node)
            || mem.(node) > ctx.Model.allowed_mem.(node)
          then
            viols :=
              violation Capacity !steps
                (Printf.sprintf
                   "sim: node %d over its allowance mid-switch (cpu %d/%d, \
                    mem %d/%d)"
                   node c
                   ctx.Model.allowed_cpu.(node)
                   mem.(node)
                   ctx.Model.allowed_mem.(node))
              :: !viols)
        cpu
    end
  in
  while !result = None && !steps < 1_000_000 && Engine.step engine do
    incr steps;
    check_capacity ()
  done;
  (match !result with
  | None ->
    viols :=
      violation Termination !steps "sim: executor never completed the switch"
      :: !viols
  | Some r ->
    (* the runner, not the executor, brackets the switch *)
    rev_records :=
      Record.Switch_end
        { switch = ctx.Model.switch; at_s = Engine.now engine; aborted = false }
      :: !rev_records;
    let final = Cluster.config cluster in
    (if Model.want ctx Invariant.Termination then
       if not (Configuration.equal final ctx.Model.target) then
         viols :=
           violation Termination !steps
             "sim: final configuration differs from the target"
           :: !viols);
    if Model.want ctx Invariant.Write_ahead then begin
      match Recovery.replay (List.rev !rev_records) with
      | None ->
        viols :=
          violation Write_ahead !steps "sim: journal trace did not replay"
          :: !viols
      | Some sw ->
        (* every slot Done leaves none failed or in flight *)
        let done_ = List.length (Recovery.done_actions sw)
        and slots = Array.length sw.Recovery.slots in
        if
          sw.Recovery.end_at = None || done_ < slots
          || sw.Recovery.unmatched > 0
        then
          viols :=
            violation Write_ahead !steps
              (Printf.sprintf
                 "sim: journal trace malformed (ended=%b done=%d/%d \
                  unmatched=%d)"
                 (sw.Recovery.end_at <> None) done_ slots sw.Recovery.unmatched)
            :: !viols
        else if
          not (Configuration.equal (Recovery.projected_config sw) final)
        then
          viols :=
            violation Write_ahead !steps
              "sim: journal projection differs from the final configuration"
            :: !viols
    end;
    ignore r);
  (!trace, List.rev !viols)

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

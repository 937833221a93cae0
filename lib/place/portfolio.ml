(* The solver portfolio: FFD -> CP-repaired LNS -> CP B&B under one
   deadline, on one CP model.

   The FFD fallback is the instant incumbent. The optimiser's model is
   built once. Large-neighbourhood search ({!Lns}) then re-places one
   neighbourhood at a time with that model's branch & bound, starting
   from the FFD placement. Each repair that lowers the objective is
   materialised — target configuration, plan through the real planner,
   true section 4.2 cost, independent verifier check — and adopted only
   if the true cost beats the incumbent's and the verifier is clean; the
   search goes on from adopted repairs only. The closing branch & bound
   runs on the same model, bounded by the incumbent's true cost (the CP
   objective is an admissible lower bound of the true cost, so the
   pruning is sound), for the rest of the deadline or its node budget.
   LNS stops early at a local optimum, so the portfolio may return
   before its deadline.

   Everything returned is verifier-viable: the portfolio never trades
   correctness for speed. *)

module Obs = Entropy_obs.Obs
module Trace = Entropy_obs.Trace
module Metrics = Entropy_obs.Metrics
module Verifier = Entropy_analysis.Verifier
open Entropy_core

let m_incumbents = lazy (Metrics.counter "place.incumbents")

type engine = [ `Cp | `Portfolio ]

let engine_to_string = function `Cp -> "cp" | `Portfolio -> "portfolio"

type report = {
  result : Optimizer.result;
  winner : string;  (* "ffd", "lns" or "cp" *)
  ffd_cost : int;
  local_cost : int option;  (* best LNS true cost, if any *)
  elapsed : float;
}

let now () = Unix.gettimeofday ()

(* Search nodes the portfolio's closing branch & bound may spend per
   placed VM. Its first solution comes within a few thousand nodes on
   the 216-VM instances, and it rarely improves on it afterwards (one
   solution in 0.5 s to 2 s); the budget hands the rest of the deadline
   back instead of spending it, and its garbage, on that search. *)
let bnb_nodes_per_vm = 25

let solve ?(deadline = 1.0) ?(engine = `Portfolio) ?vjobs ?(rules = [])
    ?(seed = 0x9e37) ~current ~demand ~placed ~target_base ~fallback () =
  Obs.span ~cat:"place" ~name:"place.portfolio"
    ~args:
      [
        ("engine", Trace.S (engine_to_string engine));
        ("vms", Trace.I (List.length placed));
      ]
  @@ fun () ->
  let t_start = now () in
  let t_end = t_start +. deadline in
  let fallback_plan =
    Planner.build ?vjobs ~current ~target:fallback ~demand ()
  in
  let ffd_cost = Plan.cost current fallback_plan in
  let incumbent =
    ref
      {
        Optimizer.target = fallback;
        plan = fallback_plan;
        cost = ffd_cost;
        improved = false;
        rules_satisfied = Placement_rules.check_all fallback rules;
        stats = None;
      }
  in
  let winner = ref "ffd" in
  let local_cost = ref None in
  (* adopt a candidate (a model solution, so rule-satisfying) if it
     strictly beats the incumbent's true cost, or the incumbent breaks
     the rules, and the independent verifier accepts its plan; true when
     adopted *)
  let record name (r : Optimizer.result) =
    if
      (r.Optimizer.cost < !incumbent.Optimizer.cost
      || not !incumbent.Optimizer.rules_satisfied)
      && Verifier.is_clean ?vjobs ~current ~target:r.Optimizer.target
           ~demand r.Optimizer.plan
    then begin
      incumbent := r;
      winner := name;
      if !Obs.enabled then begin
        Obs.instant ~cat:"place"
          ~args:
            [ ("engine", Trace.S name); ("cost", Trace.I r.Optimizer.cost) ]
          "place.incumbent";
        Metrics.incr (Lazy.force m_incumbents)
      end;
      true
    end
    else false
  in
  (* materialise a placement of the model through the real planner and
     offer it to [record] *)
  let materialise name m hosts =
    let target = Optimizer.placement_target m ~target_base hosts in
    match Planner.build ?vjobs ~current ~target ~demand () with
    | plan ->
      let cost = Plan.cost current plan in
      if name = "lns" then
        local_cost := Some (min cost (Option.value ~default:cost !local_cost));
      record name
        {
          Optimizer.target;
          plan;
          cost;
          improved = cost < ffd_cost;
          rules_satisfied = Placement_rules.check_all target rules;
          stats = None;
        }
    | exception Planner.Stuck _ -> false
  in
  if placed <> [] then begin
    let m =
      Optimizer.build_model ~rules ~current ~demand ~placed ~target_base ()
    in
    (match engine with
    | `Cp -> ()
    | `Portfolio ->
      (* LNS starts from the FFD placement when it is a model solution;
         a repair becomes its incumbent only when it is adopted here *)
      let hosts =
        Array.map
          (fun vm ->
            Option.value ~default:(-1) (Configuration.host fallback vm))
          m.Optimizer.placed_vms
      in
      Option.iter
        (fun objective ->
          Lns.run ~seed ~deadline:(t_start +. (deadline *. 0.6)) m ~hosts
            ~objective ~accept:(materialise "lns" m))
        (Lns.objective m hosts));
    if m.Optimizer.rules_postable then begin
      (* bounded by the incumbent's true cost, which the objective
         bounds from below, unless the incumbent breaks the rules *)
      let below =
        if !incumbent.Optimizer.rules_satisfied then
          Some !incumbent.Optimizer.cost
        else None
      in
      let node_limit =
        match engine with
        | `Cp -> None
        | `Portfolio -> Some (bnb_nodes_per_vm * Array.length m.hvars)
      in
      let best, stats =
        Optimizer.search ~timeout:(Float.max 0.02 (t_end -. now ()))
          ?node_limit ?below m
      in
      Option.iter (fun (_, hosts) -> ignore (materialise "cp" m hosts)) best;
      (* keep the CP stats for reporting even when CP does not win *)
      incumbent := { !incumbent with Optimizer.stats = Some stats }
    end;
    Optimizer.report_stats m
  end;
  let result =
    { !incumbent with Optimizer.improved = !incumbent.Optimizer.cost < ffd_cost }
  in
  let elapsed = now () -. t_start in
  Log.debug (fun m ->
      m "portfolio(%s): ffd=%d best=%d winner=%s elapsed=%.3fs"
        (engine_to_string engine) ffd_cost result.Optimizer.cost !winner
        elapsed);
  { result; winner = !winner; ffd_cost; local_cost = !local_cost; elapsed }

let decision ?(engine = `Portfolio) ?(deadline = 1.0)
    ?(heuristic = Ffd.First_fit) ?(rules = []) ?(suspend_to_ram = false) () =
  match engine with
  | `Cp ->
    Decision.consolidation ~cp_timeout:deadline ~heuristic ~rules
      ~suspend_to_ram ()
  | `Portfolio ->
    Decision.consolidation_with ~name:"portfolio-consolidation" ~heuristic
      ~rules ~suspend_to_ram
      (fun ~current ~demand ~vjobs ~placed ~target_base ->
        (solve ~deadline ~engine ~vjobs ~rules ~current ~demand ~placed
           ~target_base ~fallback:target_base ())
          .result)

(* The solver portfolio: FFD -> SA/LNS -> CP B&B under one deadline.

   The FFD fallback is the instant incumbent. The local-search engines
   then run in interleaved cooperative time slices over one shared
   state (the annealer restarted per slice plays the reheating role;
   LNS continues from the annealer's best). Whenever a slice improves
   the objective estimate, the placement is materialised — target
   configuration, plan through the real planner, true section 4.2 cost,
   independent verifier check — and adopted only if the true cost beats
   the incumbent's and the verifier is clean. The CP search gets the
   remaining wall-clock budget, warm-started by posting the incumbent's
   true cost as an upper bound (the CP objective is an admissible lower
   bound of the true cost, so the pruning is sound).

   Everything returned is verifier-viable: the portfolio never trades
   correctness for speed. *)

module Obs = Entropy_obs.Obs
module Trace = Entropy_obs.Trace
module Metrics = Entropy_obs.Metrics
module Verifier = Entropy_analysis.Verifier
open Entropy_core

let m_restarts = lazy (Metrics.counter "place.restarts")
let m_incumbents = lazy (Metrics.counter "place.incumbents")

type engine = [ `Cp | `Anneal | `Portfolio ]

let engine_to_string = function
  | `Cp -> "cp"
  | `Anneal -> "anneal"
  | `Portfolio -> "portfolio"

type report = {
  result : Optimizer.result;
  winner : string;  (* "ffd", "sa", "lns" or "cp" *)
  ffd_cost : int;
  local_cost : int option;  (* best local-search true cost, if any *)
  deadline : float;
  elapsed : float;
}

let now () = Unix.gettimeofday ()

(* Relational rules (Spread/Gather/Quota) are not captured by the
   per-VM masks of {!State}; with any present the portfolio leaves the
   whole budget to CP, which posts them as constraints. *)
let local_search_safe rules =
  List.for_all
    (function
      | Placement_rules.Ban _ | Placement_rules.Fence _ -> true
      | Placement_rules.Spread _ | Placement_rules.Gather _
      | Placement_rules.Quota _ -> false)
    rules

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
    Planner.build_plan ?vjobs ~current ~target:fallback ~demand ()
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
  (* adopt a candidate result if it strictly beats the incumbent's true
     cost and the independent verifier accepts its plan *)
  let record name (r : Optimizer.result) =
    if
      r.Optimizer.cost < !incumbent.Optimizer.cost
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
      end
    end
  in
  (* materialise a complete local-search state through the real planner *)
  let materialise name st =
    if State.complete st then begin
      let target = State.to_config st in
      match Planner.build_plan ?vjobs ~current ~target ~demand () with
      | plan ->
        let cost = Plan.cost current plan in
        (match !local_cost with
        | Some c when c <= cost -> ()
        | _ -> local_cost := Some cost);
        record name
          {
            Optimizer.target;
            plan;
            cost;
            improved = cost < ffd_cost;
            rules_satisfied = Placement_rules.check_all target rules;
            stats = None;
          }
      | exception Planner.Stuck _ -> ()
    end
  in
  let use_local =
    (match engine with `Cp -> false | `Anneal | `Portfolio -> true)
    && placed <> []
    && local_search_safe rules
  in
  if use_local then begin
    let st = State.create ~rules ~current ~demand ~placed ~target_base () in
    State.seed_from st fallback;
    let local_end =
      match engine with
      | `Anneal -> t_end
      | _ -> t_start +. (deadline *. 0.6)
    in
    (* interleaved cooperative slices: SA, LNS, SA, LNS, ... over the
       shared state; each slice restarts its engine from the running
       best *)
    let slice = Float.max 0.005 ((local_end -. t_start) /. 6.) in
    let best_est = ref (State.cost st) in
    let i = ref 0 in
    while now () < local_end do
      let till = Float.min local_end (now () +. slice) in
      let est =
        if !i mod 2 = 0 then
          (Anneal.run ~seed:(seed + !i) ~deadline:till st).Anneal.best_cost
        else
          (Lns.run ~seed:(seed + !i) ?vjobs ~deadline:till st).Lns.best_cost
      in
      if !i > 0 && !Obs.enabled then Metrics.incr (Lazy.force m_restarts);
      if est < !best_est then begin
        best_est := est;
        materialise (if !i mod 2 = 0 then "sa" else "lns") st
      end;
      incr i
    done;
    (* the seed itself may already beat FFD in true cost (the estimate
       ties but sequencing penalties differ) — materialise once even
       without an estimate improvement *)
    if !local_cost = None then materialise "sa" st
  end;
  (match engine with
  | `Anneal -> ()
  | `Cp | `Portfolio ->
    let remaining = Float.max 0.02 (t_end -. now ()) in
    (* warm start with the incumbent's *true* cost, never its objective
       estimate: the objective is an admissible lower bound of the true
       cost, so this bound cannot prune a true-cost-better plan, while
       an objective-scale bound could (a CP solution with a slightly
       larger objective may still win on sequencing penalties) *)
    let r =
      Optimizer.optimize ~timeout:remaining ?vjobs ~rules
        ~incumbent_cost:!incumbent.Optimizer.cost ~current ~demand ~placed
        ~target_base ~fallback ()
    in
    (* keep the CP stats for reporting even when CP does not win *)
    incumbent := { !incumbent with Optimizer.stats = r.Optimizer.stats };
    record "cp" r);
  let result =
    { !incumbent with Optimizer.improved = !incumbent.Optimizer.cost < ffd_cost }
  in
  let elapsed = now () -. t_start in
  Log.debug (fun m ->
      m "portfolio(%s): ffd=%d best=%d winner=%s elapsed=%.3fs"
        (engine_to_string engine) ffd_cost result.Optimizer.cost !winner
        elapsed);
  { result; winner = !winner; ffd_cost; local_cost = !local_cost;
    deadline; elapsed }

let decision ?(engine = `Portfolio) ?(deadline = 1.0)
    ?(heuristic = Ffd.First_fit) ?(rules = []) ?(suspend_to_ram = false) () =
  match engine with
  | `Cp ->
    Decision.consolidation ~cp_timeout:deadline ~heuristic ~rules
      ~suspend_to_ram ()
  | (`Anneal | `Portfolio) as engine ->
    let name =
      Printf.sprintf "%s-consolidation" (engine_to_string engine)
    in
    Decision.consolidation_with ~name ~heuristic ~rules ~suspend_to_ram
      (fun ~current ~demand ~vjobs ~placed ~target_base ->
        (solve ~deadline ~engine ~vjobs ~rules ~current ~demand ~placed
           ~target_base ~fallback:target_base ())
          .result)

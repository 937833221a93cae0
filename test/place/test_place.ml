(* Tests for lib/place: delta-evaluator parity, SA incumbent
   monotonicity, LNS repair viability, portfolio deadline and
   verifier-viability of every returned plan — plus the CP warm-start
   regression and the Consistency cycle-break re-validation the seed-4
   model-checker finding motivated. *)

open Entropy_core
module Generator = Vworkload.Generator
module State = Entropy_place.State
module Moves = Entropy_place.Moves
module Anneal = Entropy_place.Anneal
module Lns = Entropy_place.Lns
module Portfolio = Entropy_place.Portfolio
module Verifier = Entropy_analysis.Verifier

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let now () = Unix.gettimeofday ()

(* -- fixtures ------------------------------------------------------------- *)

let instance ~nodes ~vms ~seed =
  let { Generator.config; demand; vjobs } =
    Generator.generate
      { Generator.default_spec with node_count = nodes; vm_target = vms; seed }
  in
  let outcome = Rjsp.solve ~config ~demand ~queue:vjobs () in
  (config, demand, vjobs, outcome)

(* the Fig. 10 CP probe shape (54 VMs / 15 nodes, seed 42) *)
let probe54 = lazy (instance ~nodes:15 ~vms:54 ~seed:42)

(* the acceptance shape: 216 VMs / 54 nodes under a 1 s deadline, at
   the seed where CP alone times out without a solution (DESIGN.md
   §15) *)
let probe216 = lazy (instance ~nodes:54 ~vms:216 ~seed:2)

let seeded_state (config, demand, _vjobs, outcome) =
  let placed = List.concat_map Vjob.vms outcome.Rjsp.running in
  let st =
    State.create ~current:config ~demand ~placed
      ~target_base:outcome.Rjsp.ffd_config ()
  in
  State.seed_from st outcome.Rjsp.ffd_config;
  st

(* -- delta evaluator ------------------------------------------------------ *)

let test_delta_parity () =
  let st = seeded_state (Lazy.force probe54) in
  check_bool "seeded complete" true (State.complete st);
  check_int "seed parity" (State.recompute_cost st) (State.cost st);
  let gen = Moves.make_gen ~seed:7 st in
  let applied = ref 0 in
  for _ = 1 to 2000 do
    match Moves.propose gen st with
    | None -> ()
    | Some m ->
      let d = Moves.delta st m in
      let before = State.cost st in
      Moves.apply gen st m;
      incr applied;
      check_int "announced delta" (before + d) (State.cost st);
      check_int "incremental == from-scratch" (State.recompute_cost st)
        (State.cost st)
  done;
  check_bool "moves actually applied" true (!applied > 100);
  check_bool "still complete" true (State.complete st)

(* the estimator is an admissible lower bound of the true plan cost *)
let test_estimator_admissible () =
  let ((config, demand, vjobs, _) as inst) = Lazy.force probe54 in
  let st = seeded_state inst in
  let gen = Moves.make_gen ~seed:11 st in
  for _ = 1 to 500 do
    match Moves.propose gen st with
    | None -> ()
    | Some m -> Moves.apply gen st m
  done;
  let target = State.to_config st in
  let plan = Planner.build_plan ~vjobs ~current:config ~target ~demand () in
  check_bool "estimate <= Plan.cost" true
    (State.cost st <= Plan.cost config plan)

(* -- simulated annealing -------------------------------------------------- *)

let test_sa_monotone_incumbents () =
  let st = seeded_state (Lazy.force probe54) in
  let seed_cost = State.cost st in
  let stream = ref [] in
  let outcome =
    Anneal.run ~seed:3 ~max_steps:30_000
      ~deadline:(now () +. 10.)
      ~on_incumbent:(fun ~cost _ -> stream := cost :: !stream)
      st
  in
  let incumbents = List.rev !stream in
  check_bool "at least one incumbent" true (incumbents <> []);
  let rec strictly_decreasing = function
    | a :: (b :: _ as rest) -> a > b && strictly_decreasing rest
    | _ -> true
  in
  check_bool "incumbent stream monotone" true (strictly_decreasing incumbents);
  check_bool "best <= seed" true (outcome.Anneal.best_cost <= seed_cost);
  check_int "last incumbent is the best"
    (List.fold_left min seed_cost incumbents)
    outcome.Anneal.best_cost;
  (* the state is left loaded at the best placement *)
  check_int "state holds best" outcome.Anneal.best_cost (State.cost st);
  check_int "state parity after run" (State.recompute_cost st) (State.cost st)

(* -- LNS ------------------------------------------------------------------ *)

let test_lns_repair_viable () =
  let ((config, demand, vjobs, _) as inst) = Lazy.force probe54 in
  let st = seeded_state inst in
  let seed_cost = State.cost st in
  let outcome =
    Lns.run ~seed:5 ~max_rounds:400 ~vjobs ~deadline:(now () +. 10.) st
  in
  check_bool "never degrades" true (outcome.Lns.best_cost <= seed_cost);
  check_bool "complete after repair" true (State.complete st);
  check_int "parity after rounds" (State.recompute_cost st) (State.cost st);
  let target = State.to_config st in
  check_bool "repaired placement viable" true
    (Configuration.is_viable target demand);
  let plan = Planner.build_plan ~vjobs ~current:config ~target ~demand () in
  check_bool "verifier clean" true
    (Verifier.is_clean ~vjobs ~current:config ~target ~demand plan)

(* -- portfolio ------------------------------------------------------------ *)

let solve_probe ?(deadline = 0.4) ~engine inst =
  let config, demand, vjobs, outcome = inst in
  let placed = List.concat_map Vjob.vms outcome.Rjsp.running in
  Portfolio.solve ~deadline ~engine ~vjobs ~current:config ~demand ~placed
    ~target_base:outcome.Rjsp.ffd_config ~fallback:outcome.Rjsp.ffd_config ()

let test_portfolio_deadline () =
  let inst = Lazy.force probe216 in
  let t0 = now () in
  let report = solve_probe ~deadline:0.5 ~engine:`Portfolio inst in
  let elapsed = now () -. t0 in
  (* tolerance: plan materialisation + the CP grace slice *)
  check_bool
    (Printf.sprintf "deadline respected (%.3fs for 0.5s budget)" elapsed)
    true (elapsed < 1.5);
  check_bool "report elapsed consistent" true (report.Portfolio.elapsed <= elapsed)

let test_every_engine_verifier_clean () =
  let ((config, demand, vjobs, _) as inst) = Lazy.force probe54 in
  List.iter
    (fun engine ->
      let report = solve_probe ~engine inst in
      let r = report.Portfolio.result in
      check_bool
        (Portfolio.engine_to_string engine ^ " plan verifier-clean")
        true
        (Verifier.is_clean ~vjobs ~current:config ~target:r.Optimizer.target
           ~demand r.Optimizer.plan);
      check_bool
        (Portfolio.engine_to_string engine ^ " never worse than FFD")
        true
        (r.Optimizer.cost <= report.Portfolio.ffd_cost);
      check_bool
        (Portfolio.engine_to_string engine ^ " improved flag consistent")
        true
        (r.Optimizer.improved = (r.Optimizer.cost < report.Portfolio.ffd_cost)))
    [ `Cp; `Anneal; `Portfolio ]

(* acceptance: on the 216-VM/54-node shape with a 1 s deadline the
   portfolio strictly beats the FFD seed plan *)
let test_portfolio_beats_ffd () =
  let inst = Lazy.force probe216 in
  let report = solve_probe ~deadline:1.0 ~engine:`Portfolio inst in
  check_bool
    (Printf.sprintf "portfolio (%d) strictly beats FFD (%d), winner %s"
       report.Portfolio.result.Optimizer.cost report.Portfolio.ffd_cost
       report.Portfolio.winner)
    true
    (report.Portfolio.result.Optimizer.cost < report.Portfolio.ffd_cost)

let test_portfolio_decision () =
  let config, demand, vjobs, _ = Lazy.force probe54 in
  let d = Portfolio.decision ~engine:`Portfolio ~deadline:0.3 () in
  let r =
    d.Decision.decide { Decision.config; demand; queue = vjobs; finished = [] }
  in
  check_bool "decision plan verifier-clean" true
    (Verifier.is_clean ~vjobs ~current:config ~target:r.Optimizer.target
       ~demand r.Optimizer.plan)

(* -- CP warm start -------------------------------------------------------- *)

(* [?incumbent_cost] warm-starts branch & bound: with the local-search
   incumbent's objective posted as an upper bound the node-limited
   search explores strictly fewer nodes on the 54-VM probe (both runs
   are deterministic: node-limited, no wall-clock cutoff). *)
let test_warm_start_fewer_nodes () =
  let config, demand, vjobs, outcome = Lazy.force probe54 in
  let placed = List.concat_map Vjob.vms outcome.Rjsp.running in
  let run ?incumbent_cost () =
    Optimizer.optimize ~timeout:60. ~node_limit:3000 ?incumbent_cost ~vjobs
      ~current:config ~demand ~placed ~target_base:outcome.Rjsp.ffd_config
      ~fallback:outcome.Rjsp.ffd_config ()
  in
  let nodes_of r =
    match r.Optimizer.stats with Some s -> s.Fdcp.Search.nodes | None -> 0
  in
  let cold = run () in
  (* a deterministic local-search incumbent (step-bounded, no clock);
     its objective estimate is the CP objective of a known feasible
     placement, the tightest sound upper bound *)
  let st = seeded_state (Lazy.force probe54) in
  let seed_obj = State.cost st in
  let sa = Anneal.run ~seed:3 ~max_steps:30_000 ~deadline:infinity st in
  check_bool "local search improved on the FFD seed objective" true
    (sa.Anneal.best_cost < seed_obj);
  let warm = run ~incumbent_cost:sa.Anneal.best_cost () in
  check_bool
    (Printf.sprintf "warm start explores fewer nodes (%d < %d)"
       (nodes_of warm) (nodes_of cold))
    true
    (nodes_of warm < nodes_of cold)

(* -- consistency cycle-break re-validation (ROADMAP open item 4) ---------- *)

(* The seed-4 8-VM/3-node instance: vjob regrouping used to leave a
   disk-route suspend whose direct migration had become feasible at its
   pool — flagged by the verifier as an off-graph action. The enforce
   pass now drops the detour; the derived plan must be verifier-clean. *)
let test_seed4_cycle_break_revalidated () =
  let config, demand, vjobs, outcome = instance ~nodes:3 ~vms:8 ~seed:4 in
  let target =
    Rgraph.normalize_sleeping ~current:config outcome.Rjsp.ffd_config
  in
  let plan = Planner.build_plan ~vjobs ~current:config ~target ~demand () in
  check_bool "seed-4 derived plan verifier-clean" true
    (Verifier.is_clean ~vjobs ~current:config ~target ~demand plan);
  (* grouping survives the re-validation *)
  List.iter
    (fun vj ->
      check_bool "suspends grouped" true
        (Consistency.grouped_in_same_pool plan vj `Suspend);
      check_bool "resumes grouped" true
        (Consistency.grouped_in_same_pool plan vj `Resume))
    vjobs;
  (* and the plan still validates end to end *)
  check_bool "plan valid" true
    (Plan.is_valid ~current:config ~target ~demand plan)

let () =
  Alcotest.run "entropy_place"
    [
      ( "state",
        [
          Alcotest.test_case "delta parity under random moves" `Quick
            test_delta_parity;
          Alcotest.test_case "estimator admissible vs Plan.cost" `Quick
            test_estimator_admissible;
        ] );
      ( "anneal",
        [
          Alcotest.test_case "monotone incumbent stream" `Quick
            test_sa_monotone_incumbents;
        ] );
      ( "lns",
        [
          Alcotest.test_case "repair always viable" `Quick
            test_lns_repair_viable;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "deadline respected" `Quick
            test_portfolio_deadline;
          Alcotest.test_case "every engine verifier-clean" `Slow
            test_every_engine_verifier_clean;
          Alcotest.test_case "beats FFD on 216vm/54n in 1s" `Slow
            test_portfolio_beats_ffd;
          Alcotest.test_case "decision module wiring" `Quick
            test_portfolio_decision;
        ] );
      ( "warm-start",
        [
          Alcotest.test_case "incumbent bound explores fewer nodes" `Slow
            test_warm_start_fewer_nodes;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "seed-4 cycle break re-validated" `Quick
            test_seed4_cycle_break_revalidated;
        ] );
    ]

(* Tests for lib/place: CP-repaired LNS (deterministic repairs that
   never raise the objective and stay verifier-clean, placement rules
   honoured), portfolio deadline and verifier-viability of every
   returned plan — plus the CP warm-start regression and the seed-4
   model-checker instance, whose vjob grouping once left a redundant
   disk-route cycle break. *)

open Entropy_core
module Generator = Vworkload.Generator
module Obs = Entropy_obs.Obs
module Metrics = Entropy_obs.Metrics
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

(* the optimiser's model of an instance, and the FFD placement of its
   VMs with that placement's objective *)
let seeded_model (config, demand, _vjobs, outcome) =
  let placed = List.concat_map Vjob.vms outcome.Rjsp.running in
  let m =
    Optimizer.build_model ~current:config ~demand ~placed
      ~target_base:outcome.Rjsp.ffd_config ()
  in
  let hosts =
    Array.map
      (fun vm -> Option.get (Configuration.host outcome.Rjsp.ffd_config vm))
      m.Optimizer.placed_vms
  in
  let objective = Option.get (Lns.objective m hosts) in
  (m, hosts, objective)

(* the VMs placed on or homed at [node]: a fixed neighbourhood *)
let on_node (m : Optimizer.model) hosts node =
  List.filter
    (fun i -> hosts.(i) = node || m.home.(i) = node)
    (List.init (Array.length hosts) Fun.id)

(* deterministic repairs (node-limited, no deadline) of every node's
   VMs in turn, each from the incumbent the previous one left *)
let repair_each_node ((m : Optimizer.model), hosts, objective) ~nodes =
  List.fold_left
    (fun (hosts, objective) node ->
      match
        Lns.repair ~node_limit:200 m ~hosts ~objective
          ~free:(on_node m hosts node)
      with
      | Some (o, h) -> (h, o)
      | None -> (hosts, objective))
    (hosts, objective) (List.init nodes Fun.id)

let plan_of (config, demand, vjobs, outcome) m hosts =
  let target =
    Optimizer.placement_target m ~target_base:outcome.Rjsp.ffd_config hosts
  in
  (target, Planner.build ~vjobs ~current:config ~target ~demand ())

(* -- LNS ------------------------------------------------------------------ *)

(* one repair on a fixed neighbourhood: the same result twice, an
   objective below the incumbent's that the model confirms, and a
   verifier-clean plan *)
let test_lns_repair_viable () =
  let ((config, demand, vjobs, _) as inst) = Lazy.force probe54 in
  let m, hosts, objective = seeded_model inst in
  let repaired =
    List.filter_map
      (fun node ->
        let free = on_node m hosts node in
        let run () = Lns.repair ~node_limit:500 m ~hosts ~objective ~free in
        let r = run () in
        check_bool "deterministic" true (r = run ());
        Option.map (fun r -> (free, r)) r)
      (List.init 15 Fun.id)
  in
  check_bool "some neighbourhood improves" true (repaired <> []);
  List.iter
    (fun (free, (o, h)) ->
      check_bool "objective below the incumbent's" true (o < objective);
      Alcotest.(check (option int)) "the model agrees" (Some o)
        (Lns.objective m h);
      Array.iteri
        (fun i host ->
          if not (List.mem i free) then
            check_int "a VM outside the neighbourhood stays" hosts.(i) host)
        h;
      let target, plan = plan_of inst m h in
      check_bool "repaired placement viable" true
        (Configuration.is_viable target demand);
      check_bool "verifier clean" true
        (Verifier.is_clean ~vjobs ~current:config ~target ~demand plan))
    repaired;
  (* the store is left as found: the FFD placement reads the same *)
  Alcotest.(check (option int)) "store restored" (Some objective)
    (Lns.objective m hosts)

(* the objective is an admissible lower bound of the true plan cost *)
let test_objective_admissible () =
  let inst = Lazy.force probe54 in
  let ((m, _, _) as seeded) = seeded_model inst in
  let hosts, objective = repair_each_node seeded ~nodes:15 in
  let config, _, _, _ = inst in
  let _, plan = plan_of inst m hosts in
  check_bool "objective <= Plan.cost" true (objective <= Plan.cost config plan)

(* relational rules are constraints of the model: on the fixture (spread
   + quota) the local phase runs and its result keeps the rules *)
let test_lns_rules () =
  let { Entropy_cli.Spec.config; demand; vjobs; rules; _ } =
    Entropy_cli.Spec.load "../../examples/cluster.ecl"
  in
  let outcome = Rjsp.solve ~rules ~config ~demand ~queue:vjobs () in
  let placed = List.concat_map Vjob.vms outcome.Rjsp.running in
  let moves = Metrics.counter "place.moves" in
  let before = Metrics.counter_value moves in
  Obs.enabled := true;
  let report =
    Fun.protect
      ~finally:(fun () -> Obs.enabled := false)
      (fun () ->
        Portfolio.solve ~deadline:0.3 ~vjobs ~rules ~current:config ~demand
          ~placed ~target_base:outcome.Rjsp.ffd_config
          ~fallback:outcome.Rjsp.ffd_config ())
  in
  let r = report.Portfolio.result in
  check_bool "local phase ran" true (Metrics.counter_value moves > before);
  check_bool "rules satisfied" true
    (r.Optimizer.rules_satisfied
    && Placement_rules.check_all r.Optimizer.target rules);
  check_bool "verifier clean" true
    (Verifier.is_clean ~vjobs ~current:config ~target:r.Optimizer.target
       ~demand r.Optimizer.plan)

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
    [ `Cp; `Portfolio ]

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

(* [?incumbent_cost] warm-starts branch & bound: with the objective of
   an LNS incumbent posted as an upper bound the node-limited search
   explores strictly fewer nodes on the 54-VM probe (both runs are
   deterministic: node-limited, no wall-clock cutoff). *)
let test_warm_start_fewer_nodes () =
  let ((config, demand, vjobs, outcome) as inst) = Lazy.force probe54 in
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
  (* a deterministic LNS incumbent (node-limited repairs, no clock): the
     objective of a known feasible placement, the tightest sound upper
     bound *)
  let ((_, _, seed_obj) as seeded) = seeded_model inst in
  let _, objective = repair_each_node seeded ~nodes:15 in
  check_bool "repairs improved on the FFD objective" true
    (objective < seed_obj);
  let warm = run ~incumbent_cost:objective () in
  check_bool
    (Printf.sprintf "warm start explores fewer nodes (%d < %d)"
       (nodes_of warm) (nodes_of cold))
    true
    (nodes_of warm < nodes_of cold)

(* -- seed-4 cycle break ---------------------------------------------------- *)

(* The seed-4 8-VM/3-node instance: a post-pass that regrouped the
   vjobs' actions after planning once left a disk-route suspend whose
   direct migration had become feasible at its pool, an off-graph
   action to the verifier. The planner now groups as it selects pools,
   so the derived plan must be verifier-clean with its vjobs, grouping
   (no [Vjob_split]) included. *)
let test_seed4_cycle_break_revalidated () =
  let config, demand, vjobs, outcome = instance ~nodes:3 ~vms:8 ~seed:4 in
  let target =
    Rgraph.normalize_sleeping ~current:config outcome.Rjsp.ffd_config
  in
  let plan = Planner.build ~vjobs ~current:config ~target ~demand () in
  check_bool "seed-4 derived plan verifier-clean" true
    (Verifier.is_clean ~vjobs ~current:config ~target ~demand plan)

(* -- eviction bound --------------------------------------------------------- *)

(* The optimiser's model of a small cluster: [nodes] are (CPU, memory)
   capacities, [vms] (state, memory, CPU demand, re-placed). The VMs not
   re-placed keep their state. *)
let small_model ~nodes ~vms =
  let n = Array.length vms in
  let config =
    Configuration.with_states
      (Configuration.make
         ~nodes:
           (Array.mapi
              (fun id (cpu_capacity, memory_mb) ->
                Node.make ~id ~name:(Printf.sprintf "n%d" id) ~cpu_capacity
                  ~memory_mb)
              nodes)
         ~vms:
           (Array.mapi
              (fun id (_, memory_mb, _, _) ->
                Vm.make ~id ~name:(Printf.sprintf "v%d" id) ~memory_mb)
              vms))
      (Array.map (fun (st, _, _, _) -> st) vms)
  in
  let demand =
    Demand.of_fn ~vm_count:n (fun i ->
        let _, _, cpu, _ = vms.(i) in
        cpu)
  in
  let placed =
    List.filter
      (fun i ->
        let _, _, _, p = vms.(i) in
        p)
      (List.init n Fun.id)
  in
  Optimizer.build_model ~current:config ~demand ~placed ~target_base:config ()

(* The least objective over every placement the model accepts, found by
   binding each placement variable to each node in turn. *)
let brute_force_min (m : Optimizer.model) ~nodes =
  let k = Array.length m.hvars in
  let hosts = Array.make k 0 in
  let best = ref None in
  let rec next i =
    if i < k then
      if hosts.(i) + 1 < nodes then hosts.(i) <- hosts.(i) + 1
      else begin
        hosts.(i) <- 0;
        next (i + 1)
      end
  in
  for _ = 1 to int_of_float (float_of_int nodes ** float_of_int k) do
    let mark = Fdcp.Store.mark m.store in
    (match
       Array.iteri (fun i h -> Fdcp.Store.instantiate m.store h hosts.(i)) m.hvars;
       Fdcp.Store.propagate m.store
     with
    | () ->
      let o = Fdcp.Var.lo m.obj in
      if Option.fold ~none:true ~some:(fun b -> o < b) !best then
        best := Some o
    | exception Fdcp.Store.Inconsistent _ -> ());
    Fdcp.Store.undo_to m.store mark;
    next 0
  done;
  !best

(* The bound never exceeds the cheapest viable placement's objective, on
   every placement of 2-3 nodes and up to 8 VMs in every state. *)
let test_eviction_bound_admissible () =
  let rng = Random.State.make [| 0xe71c7 |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let viable = ref 0 and tight = ref 0 and above_root = ref 0 in
  for _ = 1 to 250 do
    let nodes =
      Array.init (2 + Random.State.int rng 2) (fun _ ->
          (pick [| 100; 200 |], pick [| 1024; 2048 |]))
    in
    let node () = Random.State.int rng (Array.length nodes) in
    let vms =
      Array.init (1 + Random.State.int rng 8) (fun _ ->
          let state =
            match Random.State.int rng 4 with
            | 0 -> Configuration.Running (node ())
            | 1 -> Configuration.Sleeping (node ())
            | 2 -> Configuration.Sleeping_ram (node ())
            | _ -> Configuration.Waiting
          in
          ( state,
            pick [| 256; 512; 1024 |],
            pick [| 0; 0; 30; 50; 100 |],
            Random.State.int rng 5 > 0 ))
    in
    let m = small_model ~nodes ~vms in
    if m.rules_postable && m.hvars <> [||] then
      match brute_force_min m ~nodes:(Array.length nodes) with
      | None -> ()
      | Some best ->
        incr viable;
        let mark = Fdcp.Store.mark m.store in
        Fdcp.Store.propagate m.store;
        if m.lower_bound > Fdcp.Var.lo m.obj then incr above_root;
        Fdcp.Store.undo_to m.store mark;
        if m.lower_bound > best then
          Alcotest.failf "bound %d above the least objective %d"
            m.lower_bound best;
        if m.lower_bound = best then incr tight
  done;
  Printf.printf
    "eviction bound tight on %d of %d viable instances, above the root \
     lower bound on %d\n"
    !tight !viable !above_root;
  check_bool "instances with a viable placement" true (!viable >= 150);
  check_bool "tight on a third of them" true (3 * !tight >= !viable);
  check_bool "stronger than the root bound on some" true (!above_root >= 10)

(* Hand-computed bounds: node 0 (CPU 200) holds more than it can. *)
let test_eviction_bound_values () =
  let bound vms =
    (small_model ~nodes:[| (200, 16384); (200, 16384) |] ~vms).lower_bound
  in
  let run ~mem ~cpu = (Configuration.Running 0, mem, cpu, true) in
  (* 40 CPU units too many: v1 sheds them cheapest, at 256/90 each,
     113.8 in all, rounded up *)
  check_int "fractional cover rounded up" 114
    (bound [| run ~mem:512 ~cpu:150; run ~mem:256 ~cpu:90 |]);
  (* a RAM-suspended VM pinned on node 0 leaves 5 CPU units of 200 to
     v1 and v2: 5 too many. v2 needs no CPU, so it sheds none of them
     however cheap its move; v1 sheds all 5 at 4096/10 each *)
  check_int "pins load, a VM of size 0 covers nothing" 2048
    (bound
       [|
         (Configuration.Sleeping_ram 0, 256, 195, true);
         run ~mem:4096 ~cpu:10;
         run ~mem:256 ~cpu:0;
       |]);
  (* a sleeping VM resumed at home pays its stay (its memory) *)
  check_int "stays count" 512
    (bound [| (Configuration.Sleeping 1, 512, 0, true) |])

let () =
  Alcotest.run "entropy_place"
    [
      ( "lns",
        [
          Alcotest.test_case "repair always viable" `Quick
            test_lns_repair_viable;
          Alcotest.test_case "objective admissible vs Plan.cost" `Quick
            test_objective_admissible;
          Alcotest.test_case "placement rules honoured" `Quick test_lns_rules;
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
      ( "lower bound",
        [
          Alcotest.test_case "admissible, exhaustively" `Quick
            test_eviction_bound_admissible;
          Alcotest.test_case "hand-computed values" `Quick
            test_eviction_bound_values;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "seed-4 cycle break re-validated" `Quick
            test_seed4_cycle_break_revalidated;
        ] );
    ]

(* The Constraint-Programming optimiser (section 4.3).

   Given the decision module's verdict — which vjobs must run — the
   optimiser searches among the viable placements of the running VMs for
   one whose reconfiguration plan is cheap: staying on the current host
   is free, migrating costs the VM's memory, resuming locally costs the
   memory and resuming remotely twice that (Table 1).

   Encoding:
   - one placement variable per running VM, valued over the nodes;
   - two bin-packing constraints (CPU, memory) for viability;
   - one movement-cost constraint ([Fdcp.Movecost]) for the objective:
     every VM whose cost table is not constant contributes [stay] on its
     home node and [move] anywhere else, both read off [cost_table]. It
     reaches the fixpoint of a per-VM element channel into a cost
     variable plus a linear sum, with incremental trailed sums instead
     of n + 2 propagators over n extra cost variables;
   - first-fail branching treating the most demanding VMs first, value
     ordering preferring the VM's current location (running VMs) or the
     node storing its image (sleeping VMs);
   - branch & bound on the objective with a solving timeout, keeping the
     best solution found so far.

   The objective is the sum of local action costs: an admissible lower
   bound of the true plan cost (which adds sequencing penalties). The
   final comparison against the fallback configuration uses the real
   plan cost. *)

module Obs = Entropy_obs.Obs
module Trace = Entropy_obs.Trace
module Metrics = Entropy_obs.Metrics

(* [Fdcp] now exports its own [Log] (source "entropy.cp"); capture the
   core's before the [let open Fdcp] scopes below shadow it. *)
module Core_log = Log

type result = {
  target : Configuration.t;
  plan : Plan.t;
  cost : int;  (* true plan cost, Table 1 model *)
  improved : bool;  (* the CP search beat the heuristic fallback *)
  rules_satisfied : bool;  (* the placement rules hold in [target] *)
  stats : Fdcp.Search.stats option;
}

let default_timeout = 1.0

(* Cost table of a VM: cost of running it on each node next iteration. *)
let cost_table current vm_id ~node_count =
  let mem = Vm.memory_mb (Configuration.vm current vm_id) in
  match Configuration.state current vm_id with
  | Configuration.Running host ->
    Array.init node_count (fun j -> if j = host then 0 else mem)
  | Configuration.Sleeping host ->
    Array.init node_count (fun j -> if j = host then mem else 2 * mem)
  | Configuration.Sleeping_ram _ ->
    (* a RAM resume is free; the placement is pinned to the host below *)
    Array.make node_count 0
  | Configuration.Waiting -> Array.make node_count Cost.run_cost
  | Configuration.Terminated ->
    invalid_arg "Optimizer: a terminated VM cannot be placed"

let preferred_node current vm_id =
  match Configuration.state current vm_id with
  | Configuration.Running host -> Some host
  | Configuration.Sleeping host -> Some host
  | Configuration.Sleeping_ram host -> Some host
  | Configuration.Waiting | Configuration.Terminated -> None

(* Residual capacities once the VMs that are not re-placed are accounted
   for (in our decision flow every running VM is re-placed, but the
   encoding stays general). *)
let residual_capacities target_base demand ~placed =
  let is_placed = Hashtbl.create 64 in
  List.iter (fun vm -> Hashtbl.replace is_placed vm ()) placed;
  let n = Configuration.node_count target_base in
  let cpu = Array.init n (fun i -> Node.cpu_capacity (Configuration.node target_base i)) in
  let mem = Array.init n (fun i -> Node.memory_mb (Configuration.node target_base i)) in
  for vm_id = 0 to Configuration.vm_count target_base - 1 do
    if not (Hashtbl.mem is_placed vm_id) then
      match Configuration.state target_base vm_id with
      | Configuration.Running host ->
        cpu.(host) <- cpu.(host) - Demand.cpu demand vm_id;
        mem.(host) <- mem.(host) - Vm.memory_mb (Configuration.vm target_base vm_id)
      | Configuration.Sleeping_ram host ->
        (* the image keeps its memory on the host *)
        mem.(host) <- mem.(host) - Vm.memory_mb (Configuration.vm target_base vm_id)
      | Configuration.Waiting | Configuration.Sleeping _
      | Configuration.Terminated -> ()
  done;
  (cpu, mem)

(* Build the target configuration from a placement snapshot. *)
let config_of_placement target_base placed snapshot =
  List.fold_left
    (fun (cfg, i) vm_id ->
      ( Configuration.set_state cfg vm_id (Configuration.Running snapshot.(i)),
        i + 1 ))
    (target_base, 0) placed
  |> fst

let plan_for ?vjobs ~current ~demand target =
  Obs.span ~cat:"optimizer" ~name:"optimizer.plan" (fun () ->
      let plan = Planner.build_plan ?vjobs ~current ~target ~demand () in
      (plan, Plan.cost current plan))

(* Flush the per-store CP observability counters into the global metrics
   registry. Name lookups happen once per optimisation, not per event. *)
let flush_cp_stats store =
  let open Fdcp in
  List.iter
    (fun (name, wakes, runs, time_us) ->
      Metrics.add (Metrics.counter ("cp.prop.wake." ^ name)) wakes;
      Metrics.add (Metrics.counter ("cp.prop.run." ^ name)) runs;
      Metrics.add
        (Metrics.counter ("cp.prop.time_us." ^ name))
        (int_of_float time_us))
    (Store.prop_stats store);
  Metrics.add (Metrics.counter "cp.store.propagations")
    (Store.propagation_count store);
  Metrics.add (Metrics.counter "cp.store.updates") (Store.update_count store)

(* Post the placement rules on the search variables: Ban/Fence restrict
   domains, Spread posts an all-different (extended with the hosts of
   the rule's fixed running VMs), Gather chains equalities. *)
let post_rules store rules ~placed_arr ~hvars ~target_base ~node_count =
  let open Fdcp in
  let var_of = Hashtbl.create 16 in
  Array.iteri (fun i h -> Hashtbl.replace var_of placed_arr.(i) h) hvars;
  List.iter
    (fun rule ->
      let members = Placement_rules.vms rule in
      let searched =
        List.filter_map (fun vm -> Hashtbl.find_opt var_of vm) members
      in
      let fixed_hosts =
        List.filter_map
          (fun vm ->
            if Hashtbl.mem var_of vm then None
            else Configuration.host target_base vm)
          members
      in
      match rule with
      | Placement_rules.Ban _ | Placement_rules.Fence _ ->
        List.iter
          (fun vm ->
            match Hashtbl.find_opt var_of vm with
            | None -> ()
            | Some h -> (
              match
                Placement_rules.allowed_nodes [ rule ] ~node_count vm
              with
              | None -> ()
              | Some allowed ->
                for node = 0 to node_count - 1 do
                  if not (List.mem node allowed) then
                    Store.remove store h node
                done))
          members
      | Placement_rules.Spread _ ->
        if searched <> [] then begin
          Alldiff.post store searched;
          List.iter
            (fun host ->
              List.iter (fun h -> Store.remove store h host) searched)
            fixed_hosts
        end
      | Placement_rules.Gather _ -> (
        (match searched with
        | first :: rest -> List.iter (fun h -> Arith.eq store first h) rest
        | [] -> ());
        match (fixed_hosts, searched) with
        | host :: _, first :: _ -> Store.instantiate store first host
        | _ -> ())
      | Placement_rules.Quota (nodes, k) ->
        (* fixed running VMs already consume part of each node's quota *)
        let fixed_on = Hashtbl.create 8 in
        for vm = 0 to Configuration.vm_count target_base - 1 do
          if not (Hashtbl.mem var_of vm) then
            match Configuration.host target_base vm with
            | Some h ->
              Hashtbl.replace fixed_on h
                (1 + Option.value ~default:0 (Hashtbl.find_opt fixed_on h))
            | None -> ()
        done;
        List.iter
          (fun node ->
            let fixed =
              Option.value ~default:0 (Hashtbl.find_opt fixed_on node)
            in
            if fixed > k then Store.fail "quota on node %d already exceeded" node;
            Count.at_most store hvars ~value:node ~count:(k - fixed))
          nodes)
    rules

(* The CP model of one optimisation, exposed so analysis passes (the
   model linter, the propagator sanitizer, [entropyctl lint]) can
   inspect exactly what the search would run on. *)
type model = {
  store : Fdcp.Store.t;
  hvars : Fdcp.Var.t array;  (* placement variables, one per placed VM *)
  placed_vms : Vm.id array;  (* placed_vms.(i) is hvars.(i)'s VM *)
  obj : Fdcp.Var.t;
  cap_cpu : int array;
  cap_mem : int array;
  rules_postable : bool;
}

let build_model_impl ~rules ~current ~demand ~placed ~target_base () =
  let open Fdcp in
  let n = Configuration.node_count current in
  let store = Store.create () in
  (* placement variables, one per re-placed VM *)
  let hvars =
    List.map
      (fun vm_id ->
        Store.new_var ~name:(Printf.sprintf "h%d" vm_id) store ~lo:0
          ~hi:(n - 1))
      placed
  in
  let harr = Array.of_list hvars in
  let placed_arr = Array.of_list placed in
  (* viability: CPU and memory packing over residual capacities *)
  let cap_cpu, cap_mem = residual_capacities target_base demand ~placed in
  let cpu_items =
    Array.mapi
      (fun i v -> Pack.item v (Demand.cpu demand placed_arr.(i)))
      harr
  in
  let mem_items =
    Array.mapi
      (fun i v ->
        Pack.item v (Vm.memory_mb (Configuration.vm current placed_arr.(i))))
      harr
  in
  Pack.post store ~name:"cpu" ~items:cpu_items ~capacities:cap_cpu ();
  Pack.post store ~name:"mem" ~items:mem_items ~capacities:cap_mem ();
  (* placement rules: maintained *during* the optimisation (the
     paper's future work) *)
  let rules_postable = ref true in
  (try
     post_rules store rules ~placed_arr ~hvars:harr ~target_base
       ~node_count:n;
     (* RAM-suspended VMs can only resume where their image lives *)
     Array.iteri
       (fun i h ->
         match Configuration.state current placed_arr.(i) with
         | Configuration.Sleeping_ram host -> Store.instantiate store h host
         | Configuration.Waiting | Configuration.Running _
         | Configuration.Sleeping _ | Configuration.Terminated -> ())
       harr
   with Store.Inconsistent _ -> rules_postable := false);
  (* objective: sum of local action costs, each two-valued (stay home
     or move) *)
  let items =
    Array.mapi
      (fun i h ->
        Movecost.of_table h (cost_table current placed_arr.(i) ~node_count:n))
      harr
    |> Array.to_list |> List.filter_map Fun.id |> Array.of_list
  in
  let ub = Array.fold_left (fun acc it -> acc + it.Movecost.move) 0 items in
  let obj = Store.new_var ~name:"obj" store ~lo:0 ~hi:(max ub 0) in
  Movecost.post store ~items ~obj;
  {
    store;
    hvars = harr;
    placed_vms = placed_arr;
    obj;
    cap_cpu;
    cap_mem;
    rules_postable = !rules_postable;
  }

let build_model ?(rules = []) ~current ~demand ~placed ~target_base () =
  Obs.span ~cat:"optimizer" ~name:"optimizer.build_model"
    ~args:[ ("placed", Trace.I (List.length placed)) ]
    (fun () ->
      build_model_impl ~rules ~current ~demand ~placed ~target_base ())

let optimize ?(timeout = default_timeout) ?node_limit ?restarts ?vjobs
    ?(rules = []) ?incumbent_cost ~current ~demand ~placed ~target_base
    ~fallback () =
  let fallback_plan, fallback_cost = plan_for ?vjobs ~current ~demand fallback in
  let fallback_result improved stats =
    {
      target = fallback;
      plan = fallback_plan;
      cost = fallback_cost;
      improved;
      rules_satisfied = Placement_rules.check_all fallback rules;
      stats;
    }
  in
  if placed = [] then fallback_result false None
  else begin
    let open Fdcp in
    let n = Configuration.node_count current in
    let { store; hvars = harr; placed_vms = placed_arr; obj; cap_cpu;
          cap_mem; rules_postable; } =
      build_model ~rules ~current ~demand ~placed ~target_base ()
    in
    let rules_postable = ref rules_postable in
    (* movement cost of the fallback placement, under the same per-VM
       cost tables the objective sums *)
    let fallback_obj = ref 0 in
    Array.iter
      (fun vm_id ->
        match Configuration.host fallback vm_id with
        | Some host ->
          fallback_obj :=
            !fallback_obj + (cost_table current vm_id ~node_count:n).(host)
        | None -> ())
      placed_arr;
    (* branching order: VMs grouped by their current host (an overload
       on a node is then detected as soon as its group is decided, not
       at the bottom of the tree), most demanding VMs first inside a
       group; VMs with no current host (waiting/sleeping) come last *)
    (* dense lookup tables indexed by [Var.id]: the search consults them
       at every node, so no hashing on the hot path *)
    let max_id = Array.fold_left (fun acc h -> max acc (Var.id h)) 0 harr in
    let key_of = Array.make (max_id + 1) max_int in
    Array.iteri
      (fun i h ->
        let vm_id = placed_arr.(i) in
        let w =
          (Vm.memory_mb (Configuration.vm current vm_id) * 10)
          + Demand.cpu demand vm_id
        in
        let group =
          match Configuration.host current vm_id with
          | Some host -> host
          | None -> n (* after every hosted group *)
        in
        key_of.(Var.id h) <- (group * 1_000_000) - w)
      harr;
    let prefer_of = Array.make (max_id + 1) (-1) in
    Array.iteri
      (fun i h ->
        match preferred_node current placed_arr.(i) with
        | Some p -> prefer_of.(Var.id h) <- p
        | None -> ())
      harr;
    let var_select = Search.by_key (fun v -> key_of.(Var.id v)) in
    (* value ordering: the VM's current location first (free move), then
       nodes by decreasing residual capacity — retrying the least-loaded
       nodes first avoids thrashing against the packing constraints.
       [order] lists the nodes in that fixed rank order once; the search
       then walks it and filters by domain membership instead of
       materialising and sorting a value list at every node. *)
    let order =
      let scored =
        Array.init n (fun j -> (j, (cap_mem.(j) * 1000) + cap_cpu.(j)))
      in
      Array.sort (fun (_, a) (_, b) -> Int.compare b a) scored;
      Array.map fst scored
    in
    let val_iter v f =
      let pref = prefer_of.(Var.id v) in
      if pref >= 0 && Var.mem pref v then f pref;
      Array.iter (fun node -> if node <> pref && Var.mem node v then f node) order
    in
    (* list-based twin of [val_iter] for the restart strategy, which
       needs materialised lists to shuffle their tails *)
    let val_select v =
      let values =
        Array.fold_right
          (fun node acc -> if Var.mem node v then node :: acc else acc)
          order []
      in
      let pref = prefer_of.(Var.id v) in
      if pref >= 0 && Var.mem pref v then
        pref :: List.filter (fun x -> x <> pref) values
      else values
    in
    (* seed branch & bound with the fallback's movement cost and any
       caller-supplied incumbent (true plan cost, e.g. a local-search
       solution): the objective is an admissible lower bound of the true
       plan cost, so bounding it below either is sound pruning — only
       strictly better placements are explored. When the fallback
       violates the placement rules it is not a usable incumbent, so its
       bound is not seeded: any rule-satisfying solution is acceptable. *)
    let seed_failed = ref false in
    let seed_bound =
      let fb =
        if rules = [] || Placement_rules.check_all fallback rules then
          Some !fallback_obj
        else None
      in
      match (fb, incumbent_cost) with
      | Some a, Some b -> Some (min a b)
      | Some a, None -> Some a
      | None, b -> b
    in
    (match seed_bound with
    | Some b -> (
      try Store.remove_above store obj (max 0 (b - 1))
      with Store.Inconsistent _ -> seed_failed := true)
    | None -> ());
    let best, stats =
      if !seed_failed || not !rules_postable then
        (None, Search.fresh_stats ())
      else
        Obs.span ~cat:"optimizer" ~name:"optimizer.search"
          ~args:
            [ ("vms", Trace.I (Array.length harr)); ("nodes", Trace.I n) ]
          (fun () ->
            match restarts with
            | Some restarts ->
              Search.minimize_restarts store ~vars:harr ~obj ~var_select
                ~val_select ~restarts ~timeout ()
            | None ->
              Search.minimize store ~vars:harr ~obj ~var_select ~val_iter
                ~timeout ?node_limit ())
    in
    if !Obs.enabled then flush_cp_stats store;
    Core_log.debug (fun m ->
        m "optimizer: %d VMs over %d nodes, %a" (Array.length harr) n
          Search.pp_stats stats);
    match best with
    | None -> fallback_result false (Some stats)
    | Some (_obj_value, snapshot) ->
      let target = config_of_placement target_base placed snapshot in
      let plan, cost = plan_for ?vjobs ~current ~demand target in
      let fallback_rules_ok = Placement_rules.check_all fallback rules in
      if cost < fallback_cost || not fallback_rules_ok then
        {
          target;
          plan;
          cost;
          improved = cost < fallback_cost;
          rules_satisfied = Placement_rules.check_all target rules;
          stats = Some stats;
        }
      else fallback_result false (Some stats)
  end

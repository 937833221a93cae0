(* Packing heuristics. First-Fit Decreasing is the paper's baseline
   (section 3.2): sort the VMs by decreasing memory and CPU demand and
   assign each to the first node with enough free resources. Best-fit
   and worst-fit variants are provided for ablation studies.

   Placement rules (Ban/Fence/Spread/Gather, see {!Placement_rules}) are
   honoured when provided, so that heuristic fallback configurations do
   not undo what the optimiser guarantees. *)

type heuristic = First_fit | Best_fit | Worst_fit

(* Decreasing (memory, cpu) order. *)
let sort_decreasing config demand vm_ids =
  let key vm_id =
    (Vm.memory_mb (Configuration.vm config vm_id), Demand.cpu demand vm_id)
  in
  List.sort
    (fun a b ->
      let ma, ca = key a and mb, cb = key b in
      match Int.compare mb ma with 0 -> Int.compare cb ca | c -> c)
    vm_ids

let pick_node heuristic (free : Configuration.free) ~ok ~cpu ~mem =
  let n = Array.length free.cpu in
  let fits i = ok i && free.cpu.(i) >= cpu && free.mem.(i) >= mem in
  match heuristic with
  | First_fit ->
    let rec go i = if i >= n then None else if fits i then Some i else go (i + 1) in
    go 0
  | Best_fit | Worst_fit ->
    let better a b =
      (* compare residual memory after placement, then residual cpu *)
      let ra = (free.mem.(a) - mem, free.cpu.(a) - cpu) in
      let rb = (free.mem.(b) - mem, free.cpu.(b) - cpu) in
      if heuristic = Best_fit then ra < rb else ra > rb
    in
    let best = ref None in
    for i = 0 to n - 1 do
      if fits i then
        match !best with
        | Some b when not (better i b) -> ()
        | _ -> best := Some i
    done;
    !best

(* Rule bookkeeping during a placement: for every rule, the hosts its
   running VMs already occupy (a multiset for quotas, which count every
   VM hosted on their nodes). *)
type rule_state = { rule : Placement_rules.t; mutable hosts : Node.id list }

let init_rules config rules =
  List.map
    (fun rule ->
      match rule with
      | Placement_rules.Quota (nodes, _) ->
        let hosts =
          List.concat_map
            (fun node ->
              List.map (fun _ -> node) (Configuration.running_on config node))
            nodes
        in
        { rule; hosts }
      | Placement_rules.Spread _ | Placement_rules.Gather _
      | Placement_rules.Ban _ | Placement_rules.Fence _ ->
        { rule; hosts = Placement_rules.running_hosts config rule })
    rules

let count_host rs node =
  List.fold_left (fun acc h -> if h = node then acc + 1 else acc) 0 rs.hosts

let node_ok rule_states allowed vm node =
  (match allowed with None -> true | Some nodes -> List.mem node nodes)
  && List.for_all
       (fun rs ->
         match rs.rule with
         | Placement_rules.Quota (nodes, k) ->
           (not (List.mem node nodes)) || count_host rs node < k
         | Placement_rules.Spread vms ->
           (not (List.mem vm vms)) || not (List.mem node rs.hosts)
         | Placement_rules.Gather vms ->
           (not (List.mem vm vms))
           || rs.hosts = []
           || List.for_all (fun h -> h = node) rs.hosts
         | Placement_rules.Ban _ | Placement_rules.Fence _ -> true)
       rule_states

let record_placement rule_states vm node =
  List.iter
    (fun rs ->
      match rs.rule with
      | Placement_rules.Quota (nodes, _) ->
        if List.mem node nodes then rs.hosts <- node :: rs.hosts
      | Placement_rules.Spread _ | Placement_rules.Gather _
      | Placement_rules.Ban _ | Placement_rules.Fence _ ->
        if List.mem vm (Placement_rules.vms rs.rule) then
          rs.hosts <- node :: rs.hosts)
    rule_states

(* Assign [vm_ids] as Running on [config], claiming their resources in
   [free] (the free view of [config], updated in place); None when some
   VM cannot be placed, with [free] then partly claimed. The input
   configuration's running VMs keep their hosts. The placements are
   written in one edit. *)
let place_in ?(heuristic = First_fit) ?(rules = []) (free : Configuration.free)
    config demand vm_ids =
  let n = Array.length free.cpu in
  let rule_states = init_rules config rules in
  let ordered = sort_decreasing config demand vm_ids in
  let rec go placed = function
    | [] ->
      Some
        (Configuration.edit config (fun e ->
             List.iter
               (fun (vm_id, node) ->
                 Configuration.write e vm_id (Configuration.Running node))
               placed))
    | vm_id :: rest -> (
      let cpu = Demand.cpu demand vm_id in
      (* a RAM-suspended VM is pinned to the node holding its image, and
         its memory is already accounted in the free view *)
      let pinned, mem =
        match Configuration.state config vm_id with
        | Configuration.Sleeping_ram host -> (Some host, 0)
        | Configuration.Waiting | Configuration.Running _
        | Configuration.Sleeping _ | Configuration.Terminated ->
          (None, Vm.memory_mb (Configuration.vm config vm_id))
      in
      let allowed =
        Placement_rules.allowed_nodes rules ~node_count:n vm_id
      in
      let ok node =
        node_ok rule_states allowed vm_id node
        && match pinned with None -> true | Some h -> node = h
      in
      match pick_node heuristic free ~ok ~cpu ~mem with
      | None -> None
      | Some node ->
        free.cpu.(node) <- free.cpu.(node) - cpu;
        free.mem.(node) <- free.mem.(node) - mem;
        record_placement rule_states vm_id node;
        go ((vm_id, node) :: placed) rest)
  in
  go [] ordered

let place ?heuristic ?rules config demand vm_ids =
  place_in ?heuristic ?rules (Configuration.free_view config demand) config
    demand vm_ids

(* Convenience: can the VMs fit at all (placement discarded)? *)
let fits ?heuristic ?rules config demand vm_ids =
  Option.is_some (place ?heuristic ?rules config demand vm_ids)

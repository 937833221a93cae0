(* Large-neighbourhood search with exact CP repair.

   Each round frees a neighbourhood — the VMs on two nodes, or the VMs
   placed on or homed at one node (so a VM that left its home can come
   back) — fixes every other VM at its incumbent host between a store
   mark and its undo, and runs the optimiser's node-limited branch &
   bound for an objective below the incumbent's. Plain branch & bound on
   the whole placement stays under its first solution; these repairs
   move the same CP effort across the whole placement instead.

   The nodes of a neighbourhood are drawn through random VMs (the node a
   VM runs on, or its home), so no round draws an empty node. A repair
   is deterministic in its neighbourhood and incumbent, so once
   [stall_per_vm] rounds per VM in a row have brought no new incumbent,
   the incumbent is taken for a local optimum and the search stops:
   every further round costs time and garbage for little chance of a
   gain. *)

module Obs = Entropy_obs.Obs
module Metrics = Entropy_obs.Metrics
module Store = Fdcp.Store
open Entropy_core

let m_moves = lazy (Metrics.counter "place.moves")
let m_accepted = lazy (Metrics.counter "place.accepted")

let node_limit = 20
let stall_per_vm = 2

let now () = Unix.gettimeofday ()

(* [f ()] with the store restored, and its popped trail entries
   released, afterwards; [None] when fixing or propagating fails *)
let scoped (m : Optimizer.model) f =
  let mark = Store.mark m.store in
  let r = try f () with Store.Inconsistent _ -> None in
  Store.undo_to m.store mark;
  Store.release m.store;
  r

let objective (m : Optimizer.model) hosts =
  if not m.rules_postable then None
  else
    scoped m (fun () ->
        Array.iteri (fun i h -> Store.instantiate m.store h hosts.(i)) m.hvars;
        Store.propagate m.store;
        Some (Fdcp.Var.lo m.obj))

let repair ?timeout ~node_limit (m : Optimizer.model) ~hosts ~objective ~free =
  scoped m (fun () ->
      Array.iteri
        (fun i h ->
          if not (List.mem i free) then Store.instantiate m.store h hosts.(i))
        m.hvars;
      let free = Array.of_list free in
      let vars = Array.map (fun i -> m.hvars.(i)) free in
      match Optimizer.search ?timeout ~node_limit ~below:objective ~vars m with
      | Some (o, snapshot), _ when o < objective ->
        let hosts = Array.copy hosts in
        Array.iteri (fun j i -> hosts.(i) <- snapshot.(j)) free;
        Some (o, hosts)
      | _ -> None)

let run ?(seed = 0x1a5) ~deadline (m : Optimizer.model) ~hosts ~objective
    ~accept =
  Obs.span ~cat:"place" ~name:"place.lns" @@ fun () ->
  let rng = Random.State.make [| seed |] in
  let k = Array.length hosts in
  let hosts = ref hosts and objective = ref objective in
  let rounds = ref 0 and accepted = ref 0 and since = ref 0 in
  while !objective > 0 && !since < stall_per_vm * k && now () < deadline do
    incr rounds;
    incr since;
    let h = !hosts in
    let in_hood =
      let i = Random.State.int rng k in
      if !rounds land 1 = 1 then
        let a = h.(i) and b = h.(Random.State.int rng k) in
        fun j -> h.(j) = a || h.(j) = b
      else
        let a = if m.home.(i) >= 0 then m.home.(i) else h.(i) in
        fun j -> h.(j) = a || m.home.(j) = a
    in
    let free = ref [] in
    for j = k - 1 downto 0 do
      if in_hood j then free := j :: !free
    done;
    match
      repair ~timeout:(deadline -. now ()) ~node_limit m ~hosts:h
        ~objective:!objective ~free:!free
    with
    | Some (o, h) when accept h ->
      incr accepted;
      since := 0;
      objective := o;
      hosts := h
    | Some _ | None -> ()
  done;
  if !Obs.enabled then begin
    Metrics.add (Lazy.force m_moves) !rounds;
    Metrics.add (Lazy.force m_accepted) !accepted
  end

(* Large-neighbourhood search: destroy / repair rounds.

   Each round ejects a neighbourhood — every placed VM of one node, one
   vjob's placed VMs (the suspend/resume-vjob neighbourhood: the job's
   VMs are re-placed together), or k random VMs — and repairs it with
   the FFD idiom: ejected VMs in decreasing (memory, CPU) demand order,
   each to the cheapest feasible node by its Table 1 cost table (ties to
   the freest node). A round that cannot repair, or repairs to a worse
   placement, is rolled back, so the state never degrades. *)

module Obs = Entropy_obs.Obs
module Metrics = Entropy_obs.Metrics
open Entropy_core

let m_moves = lazy (Metrics.counter "place.moves")
let m_accepted = lazy (Metrics.counter "place.accepted")
let m_incumbents = lazy (Metrics.counter "place.incumbents")

(* VMs ejected by the random neighbourhood *)
let destroy_max = 8

(* rounds between wall-clock reads *)
let check_every = 8

type outcome = {
  best_cost : int;  (* objective (estimator) value, not plan cost *)
  best_hosts : int array;
  rounds : int;
  improved_rounds : int;
  incumbents : int;
}

let now () = Unix.gettimeofday ()

(* Repair the ejected indices FFD-style; returns false (nothing placed
   yet rolled back by the caller) when some VM has no feasible node. *)
let repair state ejected =
  let order =
    List.sort
      (fun a b ->
        match Int.compare (State.vm_mem state b) (State.vm_mem state a) with
        | 0 -> Int.compare (State.vm_cpu state b) (State.vm_cpu state a)
        | c -> c)
      ejected
  in
  let n = State.node_count state in
  List.for_all
    (fun i ->
      let best = ref (-1) in
      let best_cost = ref max_int in
      for j = 0 to n - 1 do
        if State.fits state i j then begin
          let c = State.table_cost state i j in
          if c < !best_cost then begin
            best_cost := c;
            best := j
          end
        end
      done;
      if !best >= 0 then begin
        State.assign state i !best;
        true
      end
      else false)
    order

let run ?max_rounds ?(seed = 0x1a5) ?(vjobs = []) ~deadline state =
  Obs.span ~cat:"place" ~name:"place.lns" @@ fun () ->
  let rng = Random.State.make [| seed |] in
  let k = State.vm_count state and n = State.node_count state in
  (* vjob neighbourhoods, as placed-VM index lists *)
  let vjob_sets =
    List.filter_map
      (fun vj ->
        match List.filter_map (State.index_of state) (Vjob.vms vj) with
        | [] -> None
        | ids -> Some ids)
      vjobs
    |> Array.of_list
  in
  let best_cost = ref (State.cost state) in
  let best_hosts = ref (State.copy_hosts state) in
  let rounds = ref 0 and improved = ref 0 and incumbents = ref 0 in
  let budget = match max_rounds with Some r -> r | None -> max_int in
  let stop = ref (k = 0 || n < 2) in
  while (not !stop) && !rounds < budget do
    incr rounds;
    let ejected =
      match !rounds mod 3 with
      | 0 when Array.length vjob_sets > 0 ->
        vjob_sets.(Random.State.int rng (Array.length vjob_sets))
      | 1 -> State.placed_on state (Random.State.int rng n)
      | _ ->
        let m = min destroy_max k in
        let seen = Hashtbl.create m in
        for _ = 1 to m do
          Hashtbl.replace seen (Random.State.int rng k) ()
        done;
        Hashtbl.fold (fun i () acc -> i :: acc) seen []
    in
    let ejected = List.filter (fun i -> State.host state i >= 0) ejected in
    if ejected <> [] then begin
      let before = State.cost state in
      let saved = List.map (fun i -> (i, State.host state i)) ejected in
      List.iter (State.unassign state) ejected;
      let ok = repair state ejected in
      if ok && State.cost state < before then begin
        incr improved;
        let c = State.cost state in
        if c < !best_cost then begin
          best_cost := c;
          best_hosts := State.copy_hosts state;
          incr incumbents
        end
      end
      else begin
        (* roll back: unassign whatever the repair placed, restore *)
        List.iter
          (fun (i, _) -> if State.host state i >= 0 then State.unassign state i)
          saved;
        List.iter (fun (i, j) -> State.assign state i j) saved
      end
    end;
    if !rounds mod check_every = 0 && now () >= deadline then
      stop := true
  done;
  if State.cost state > !best_cost then State.load_hosts state !best_hosts;
  if !Obs.enabled then begin
    Metrics.add (Lazy.force m_moves) !rounds;
    Metrics.add (Lazy.force m_accepted) !improved;
    Metrics.add (Lazy.force m_incumbents) !incumbents
  end;
  {
    best_cost = !best_cost;
    best_hosts = !best_hosts;
    rounds = !rounds;
    improved_rounds = !improved;
    incumbents = !incumbents;
  }

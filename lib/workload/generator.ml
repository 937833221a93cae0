(* Random configuration generator for the scalability evaluation
   (section 5.1 / Figure 10): 200 working nodes with 2 CPUs and 4 GB of
   memory, and a variable number of VMs obtained by aggregating vjobs of
   9 or 18 VMs drawn from the NGB trace catalogue. Each vjob's initial
   state is chosen randomly; the initial assignment of running VMs
   satisfies the memory requirement of every VM (the CPU may be
   overloaded — that is what the context switch fixes). *)

open Entropy_core

type spec = {
  node_count : int;
  node_cpu : int;   (* hundredths of a core *)
  node_mem : int;   (* MB *)
  vm_target : int;  (* how many VMs to aggregate *)
  seed : int;
}

let default_spec =
  { node_count = 200; node_cpu = 200; node_mem = 4096; vm_target = 216; seed = 0 }

type instance = {
  config : Configuration.t;
  demand : Demand.t;
  vjobs : Vjob.t list;
}

(* Memory-aware first-fit over a random node order. *)
let place_by_memory rng free_mem memories =
  let n = Array.length free_mem in
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  let place mem =
    let rec go k =
      if k >= n then None
      else
        let node = order.(k) in
        if free_mem.(node) >= mem then begin
          free_mem.(node) <- free_mem.(node) - mem;
          Some node
        end
        else go (k + 1)
    in
    go 0
  in
  List.map place memories

let generate spec =
  let rng = Random.State.make [| spec.seed; 0x5eed |] in
  let traces = Array.of_list (Trace.catalogue ()) in
  (* draw vjobs until the VM target is reached *)
  let rec draw acc total =
    if total >= spec.vm_target then List.rev acc
    else
      let t = traces.(Random.State.int rng (Array.length traces)) in
      (* keep the VM count aligned with the target when possible *)
      let t =
        if total + t.Trace.vm_count > spec.vm_target then
          Trace.make ~seed:(Random.State.int rng 1000) ~vm_count:9
            t.Trace.family t.Trace.cls
        else t
      in
      draw (t :: acc) (total + t.Trace.vm_count)
  in
  let selected = draw [] 0 in
  let nodes =
    Array.init spec.node_count (fun i ->
        Node.make ~id:i ~name:(Printf.sprintf "N%d" i)
          ~cpu_capacity:spec.node_cpu ~memory_mb:spec.node_mem)
  in
  (* flatten VMs, assign dense ids *)
  let vm_specs =
    List.concat_map
      (fun t -> List.map (fun m -> (t, m)) t.Trace.memories)
      selected
  in
  let vms =
    Array.of_list
      (List.mapi
         (fun i (t, m) ->
           Vm.make ~id:i
             ~name:(Printf.sprintf "%s-vm%d" t.Trace.name i)
             ~memory_mb:m)
         vm_specs)
  in
  let config = Configuration.make ~nodes ~vms in
  (* per-VM demand: the head phase of its program *)
  let demand =
    let programs =
      Array.of_list (List.concat_map (fun t -> t.Trace.programs) selected)
    in
    Demand.of_fn ~vm_count:(Array.length vms) (fun vm_id ->
        Program.demand programs.(vm_id))
  in
  let vjobs = ref [] in
  let config = ref config in
  let free_mem =
    Array.init spec.node_count (fun _ -> spec.node_mem)
  in
  let next_vm = ref 0 in
  List.iteri
    (fun j t ->
      let ids = List.init t.Trace.vm_count (fun k -> !next_vm + k) in
      next_vm := !next_vm + t.Trace.vm_count;
      let state = Random.State.int rng 3 in
      (match state with
      | 0 ->
        (* running: memory-aware placement *)
        let placements = place_by_memory rng free_mem t.Trace.memories in
        List.iter2
          (fun vm_id placement ->
            match placement with
            | Some node ->
              config :=
                Configuration.set_state !config vm_id
                  (Configuration.Running node)
            | None -> () (* cluster memory exhausted: stays waiting *))
          ids placements
      | 1 ->
        (* sleeping: image on a random node *)
        let node = Random.State.int rng spec.node_count in
        List.iter
          (fun vm_id ->
            config :=
              Configuration.set_state !config vm_id
                (Configuration.Sleeping node))
          ids
      | _ -> () (* waiting *));
      vjobs :=
        Vjob.make ~id:j ~name:t.Trace.name ~vms:ids
          ~submit_time:(float_of_int j) ()
        :: !vjobs)
    selected;
  { config = !config; demand; vjobs = List.rev !vjobs }

(* The paper's Figure 10 sweep: VM counts from 54 to 486 by 54. *)
let figure10_vm_counts = [ 54; 108; 162; 216; 270; 324; 378; 432; 486 ]

let figure10_instances ?(samples = 30) ~vm_count () =
  List.init samples (fun s ->
      generate { default_spec with vm_target = vm_count; seed = s })

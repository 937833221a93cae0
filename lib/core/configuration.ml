(* A configuration maps every VM of the cluster to a state: Waiting (not
   yet instantiated), Running on a node, Sleeping with its image stored
   on a node, or Terminated. A configuration is *viable* when every
   running VM has access to sufficient CPU and memory on its host
   (section 3.2) — waiting and sleeping VMs consume neither.

   VM and node identifiers are dense: [Vm.id] (resp. [Node.id]) is the
   index of the VM (resp. node) in the configuration's arrays. *)

type vm_state =
  | Waiting
  | Running of Node.id
  | Sleeping of Node.id  (* node whose disk holds the suspended image *)
  | Sleeping_ram of Node.id
      (* suspended in the host's RAM (paper section 7 future work):
         memory stays allocated, CPU is freed, resume is nearly free but
         only possible on that host *)
  | Terminated

let pp_vm_state ppf = function
  | Waiting -> Fmt.string ppf "waiting"
  | Running n -> Fmt.pf ppf "running@@N%d" n
  | Sleeping n -> Fmt.pf ppf "sleeping@@N%d" n
  | Sleeping_ram n -> Fmt.pf ppf "sleeping-ram@@N%d" n
  | Terminated -> Fmt.string ppf "terminated"

let equal_vm_state (a : vm_state) b =
  match (a, b) with
  | Waiting, Waiting | Terminated, Terminated -> true
  | Running n, Running m | Sleeping n, Sleeping m | Sleeping_ram n, Sleeping_ram m
    -> n = m
  | (Waiting | Terminated | Running _ | Sleeping _ | Sleeping_ram _), _ -> false

(* The state vector is chunked ({!Chunked}): a write copies the spine
   and one chunk, and the configuration it came from shares the rest. *)
type t = {
  nodes : Node.t array;
  vms : Vm.t array;
  states : vm_state Chunked.t;
}

let check_dense_ids nodes vms =
  Array.iteri
    (fun i n ->
      if Node.id n <> i then
        invalid_arg "Configuration.make: node ids must equal their index")
    nodes;
  Array.iteri
    (fun i v ->
      if Vm.id v <> i then
        invalid_arg "Configuration.make: vm ids must equal their index")
    vms

let make ~nodes ~vms =
  check_dense_ids nodes vms;
  { nodes; vms; states = Chunked.make (Array.length vms) Waiting }

let with_states t states =
  if Array.length states <> Array.length t.vms then
    invalid_arg "Configuration.with_states: arity mismatch";
  { t with states = Chunked.of_array states }

let with_nodes t nodes =
  if Array.length nodes <> Array.length t.nodes then
    invalid_arg "Configuration.with_nodes: node count mismatch";
  Array.iteri
    (fun i n ->
      if Node.id n <> i then
        invalid_arg "Configuration.with_nodes: node ids must equal their index")
    nodes;
  { t with nodes }

let node_count t = Array.length t.nodes
let vm_count t = Array.length t.vms
let nodes t = t.nodes
let vms t = t.vms

let node t id =
  if id < 0 || id >= Array.length t.nodes then
    invalid_arg "Configuration.node: unknown node"
  else t.nodes.(id)

let vm t id =
  if id < 0 || id >= Array.length t.vms then
    invalid_arg "Configuration.vm: unknown VM"
  else t.vms.(id)

(* The chunked accessors reject an index out of range before they read
   or write anything; the error is renamed for the caller. *)
let unknown_vm () = invalid_arg "Configuration.state: unknown VM"

let state t vm_id =
  match Chunked.get t.states vm_id with
  | s -> s
  | exception Invalid_argument _ -> unknown_vm ()

type editor = vm_state Chunked.editor

let read e vm_id =
  match Chunked.read e vm_id with
  | s -> s
  | exception Invalid_argument _ -> unknown_vm ()

let write e vm_id s =
  try Chunked.write e vm_id s with Invalid_argument _ -> unknown_vm ()

let edit t f =
  let states = Chunked.edit t.states f in
  if states == t.states then t else { t with states }

let set_state t vm_id s =
  match Chunked.set t.states vm_id s with
  | states -> if states == t.states then t else { t with states }
  | exception Invalid_argument _ -> unknown_vm ()

let host t vm_id =
  match state t vm_id with
  | Running n -> Some n
  | Waiting | Sleeping _ | Sleeping_ram _ | Terminated -> None

let lifecycle_of_state = function
  | Waiting -> Lifecycle.Waiting
  | Running _ -> Lifecycle.Running
  | Sleeping _ | Sleeping_ram _ -> Lifecycle.Sleeping
  | Terminated -> Lifecycle.Terminated

let lifecycle t vm_id = lifecycle_of_state (state t vm_id)

let fold_vms f acc t = Chunked.foldi f acc t.states

let running_on t node_id =
  List.rev
    (fold_vms
       (fun acc id -> function
         | Running n when n = node_id -> id :: acc
         | Running _ | Waiting | Sleeping _ | Sleeping_ram _ | Terminated ->
           acc)
       [] t)

let ram_sleeping_on t node_id =
  List.rev
    (fold_vms
       (fun acc id -> function
         | Sleeping_ram n when n = node_id -> id :: acc
         | Sleeping_ram _ | Waiting | Running _ | Sleeping _ | Terminated ->
           acc)
       [] t)

let running_vms t =
  List.rev
    (fold_vms
       (fun acc id -> function
         | Running _ -> id :: acc
         | Waiting | Sleeping _ | Sleeping_ram _ | Terminated -> acc)
       [] t)

(* -- loads ---------------------------------------------------------------- *)

let cpu_load t demand node_id =
  List.fold_left
    (fun acc vm_id -> acc + Demand.cpu demand vm_id)
    0 (running_on t node_id)

(* A RAM-suspended VM keeps its memory allocated on the host. *)
let mem_load t node_id =
  List.fold_left
    (fun acc vm_id -> acc + Vm.memory_mb t.vms.(vm_id))
    0
    (running_on t node_id @ ram_sleeping_on t node_id)

let free_cpu t demand node_id =
  Node.cpu_capacity t.nodes.(node_id) - cpu_load t demand node_id

let free_mem t node_id = Node.memory_mb t.nodes.(node_id) - mem_load t node_id

(* Both loads of every node at once; O(vms + nodes). *)
let loads t demand =
  let n = Array.length t.nodes in
  let cpu = Array.make n 0 and mem = Array.make n 0 in
  Chunked.iteri
    (fun vm_id -> function
      | Running node ->
        cpu.(node) <- cpu.(node) + Demand.cpu demand vm_id;
        mem.(node) <- mem.(node) + Vm.memory_mb t.vms.(vm_id)
      | Sleeping_ram node ->
        mem.(node) <- mem.(node) + Vm.memory_mb t.vms.(vm_id)
      | Waiting | Sleeping _ | Terminated -> ())
    t.states;
  (cpu, mem)

let is_viable t demand =
  let cpu, mem = loads t demand in
  let ok = ref true in
  Array.iteri
    (fun i node ->
      if cpu.(i) > Node.cpu_capacity node || mem.(i) > Node.memory_mb node
      then ok := false)
    t.nodes;
  !ok

let overloaded_nodes t demand =
  let cpu, mem = loads t demand in
  let acc = ref [] in
  for i = Array.length t.nodes - 1 downto 0 do
    let node = t.nodes.(i) in
    if cpu.(i) > Node.cpu_capacity node || mem.(i) > Node.memory_mb node
    then acc := i :: !acc
  done;
  !acc

let iter_changed f a b = Chunked.iter_changed equal_vm_state f a.states b.states

type free = { cpu : int array; mem : int array }

let free_view t demand =
  let cpu_load, mem_load = loads t demand in
  {
    cpu = Array.mapi (fun i n -> Node.cpu_capacity n - cpu_load.(i)) t.nodes;
    mem = Array.mapi (fun i n -> Node.memory_mb n - mem_load.(i)) t.nodes;
  }

(* Only the VMs whose states differ move a node's free resources: a
   state takes back what its VM held in [a] and charges what it holds
   in [b]. *)
let shift_free free demand a b =
  iter_changed
    (fun vm_id sa sb ->
      let cpu = Demand.cpu demand vm_id and mem = Vm.memory_mb a.vms.(vm_id) in
      (match sa with
      | Running n ->
        free.cpu.(n) <- free.cpu.(n) + cpu;
        free.mem.(n) <- free.mem.(n) + mem
      | Sleeping_ram n -> free.mem.(n) <- free.mem.(n) + mem
      | Waiting | Sleeping _ | Terminated -> ());
      match sb with
      | Running n ->
        free.cpu.(n) <- free.cpu.(n) - cpu;
        free.mem.(n) <- free.mem.(n) - mem
      | Sleeping_ram n -> free.mem.(n) <- free.mem.(n) - mem
      | Waiting | Sleeping _ | Terminated -> ())
    a b

(* Room for one more VM with the given demands on the given node. *)
let fits t demand ~cpu ~mem node_id =
  free_cpu t demand node_id >= cpu && free_mem t node_id >= mem

(* -- vjob-level view ------------------------------------------------------ *)

let vjob_state t (vjob : Vjob.t) =
  match Vjob.vms vjob with
  | [] -> None
  | first :: rest ->
    let s = lifecycle t first in
    if List.for_all (fun v -> lifecycle t v = s) rest then Some s else None

let vjob_terminated t vjob =
  List.for_all (fun vm -> state t vm = Terminated) (Vjob.vms vjob)

let equal a b =
  Chunked.equal equal_vm_state a.states b.states
  && Array.length a.nodes = Array.length b.nodes

let pp ppf t =
  let pp_one ppf (vm, s) =
    Fmt.pf ppf "%s:%a" (Vm.name vm) pp_vm_state s
  in
  let entries =
    List.rev (fold_vms (fun acc i s -> (t.vms.(i), s) :: acc) [] t)
  in
  Fmt.pf ppf "@[<hov>%a@]" Fmt.(list ~sep:sp pp_one) entries

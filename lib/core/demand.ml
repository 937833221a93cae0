(* Observed CPU demands of the VMs, in hundredths of a core. The memory
   demand of a VM is static (its allocation, [Vm.memory_mb]); only CPU
   varies with the application phase, which is what the monitoring
   service reports to the control loop.

   A demand is an immutable chunked vector ({!Chunked}) indexed by
   [Vm.id]: a new demand written from an old one shares every chunk it
   did not write, so the monitor's smoothed demand shares the readings'
   quiet chunks and a journal stream shares a switch's demand with the
   one before. *)

type t = int Chunked.t

let make ~vm_count ~default = Chunked.make vm_count default
let of_fn ~vm_count f = Chunked.init vm_count f
let uniform ~vm_count cpu = Chunked.make vm_count cpu

let cpu t vm_id =
  if vm_id < 0 || vm_id >= Chunked.length t then
    invalid_arg "Demand.cpu: unknown VM"
  else Chunked.get t vm_id

let vm_count = Chunked.length

type editor = int Chunked.editor

let edit = Chunked.edit

let write e vm_id cpu =
  try Chunked.write e vm_id cpu
  with Invalid_argument _ -> invalid_arg "Demand.write: unknown VM"

let equal = Chunked.equal Int.equal

let pp ppf t =
  Fmt.pf ppf "@[<h>%a@]" Fmt.(array ~sep:sp int) (Chunked.to_array t)

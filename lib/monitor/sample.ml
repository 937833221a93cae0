(* One monitoring sample: the CPU consumption of every VM at an instant,
   as a Ganglia-like daemon would report it. *)

open Entropy_core

type t = {
  time : float;
  cpu : int Chunked.t; (* per-VM CPU consumption, hundredths of a core *)
}

let make ~time ~cpu = { time; cpu }

let time t = t.time
let readings t = t.cpu

let cpu t vm_id =
  if vm_id < 0 || vm_id >= Chunked.length t.cpu then
    invalid_arg "Sample.cpu: unknown VM"
  else Chunked.get t.cpu vm_id

let vm_count t = Chunked.length t.cpu

let pp ppf t =
  Fmt.pf ppf "t=%.1f [%a]" t.time Fmt.(array ~sep:sp int) (Chunked.to_array t.cpu)

(* One monitoring sample: the CPU consumption of every VM at an instant,
   as a Ganglia-like daemon would report it. *)

type t = {
  time : float;
  cpu : int array; (* per-VM CPU consumption, hundredths of a core *)
}

let make ~time ~cpu = { time; cpu }

let time t = t.time

let cpu t vm_id =
  if vm_id < 0 || vm_id >= Array.length t.cpu then
    invalid_arg "Sample.cpu: unknown VM"
  else t.cpu.(vm_id)

let vm_count t = Array.length t.cpu

let pp ppf t =
  Fmt.pf ppf "t=%.1f [%a]" t.time Fmt.(array ~sep:sp int) t.cpu

(* Bounded history of monitoring samples, oldest evicted first. A ring
   buffer: adding a sample overwrites the oldest slot once full, so a
   poll costs O(1) whatever the capacity. *)

type t = {
  capacity : int;
  mutable slots : Sample.t array; (* allocated at the first [add] *)
  mutable newest : int;           (* slot of the latest sample *)
  mutable length : int;
}

let create ?(capacity = 128) () =
  if capacity <= 0 then invalid_arg "History.create: capacity <= 0";
  { capacity; slots = [||]; newest = -1; length = 0 }

let add t sample =
  if Array.length t.slots = 0 then
    t.slots <- Array.make t.capacity sample;
  t.newest <- (t.newest + 1) mod t.capacity;
  t.slots.(t.newest) <- sample;
  if t.length < t.capacity then t.length <- t.length + 1

let latest t = if t.length = 0 then None else Some t.slots.(t.newest)

let length t = t.length

(* The [i]-th most recent sample, 0 = latest. *)
let nth t i = t.slots.((t.newest - i + t.capacity) mod t.capacity)

(* Samples no older than [now - span], newest first. *)
let window t ~now ~span =
  let acc = ref [] in
  for i = t.length - 1 downto 0 do
    let s = nth t i in
    if Sample.time s >= now -. span then acc := s :: !acc
  done;
  !acc

(* Per-VM average CPU over the window; falls back to the latest sample
   when the window is empty. *)
let average_cpu t ~now ~span vm_id =
  match window t ~now ~span with
  | [] -> Option.map (fun s -> Sample.cpu s vm_id) (latest t)
  | samples ->
    let sum = List.fold_left (fun acc s -> acc + Sample.cpu s vm_id) 0 samples in
    Some (sum / List.length samples)

(* Bounded history of monitoring samples, oldest evicted first. *)

type t = {
  capacity : int;
  mutable samples : Sample.t list; (* newest first *)
  mutable length : int;
}

let create ?(capacity = 128) () =
  if capacity <= 0 then invalid_arg "History.create: capacity <= 0";
  { capacity; samples = []; length = 0 }

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let add t sample =
  t.samples <- sample :: t.samples;
  t.length <- t.length + 1;
  if t.length > t.capacity then begin
    t.samples <- take t.capacity t.samples;
    t.length <- t.capacity
  end

let latest t = match t.samples with [] -> None | s :: _ -> Some s

let length t = t.length

(* Samples within the time window [now - span, now]. *)
let window t ~now ~span =
  List.filter (fun s -> Sample.time s >= now -. span) t.samples

(* Per-VM average CPU over a window; falls back to the latest sample
   when the window is empty. *)
let average_cpu t ~now ~span vm_id =
  match window t ~now ~span with
  | [] -> Option.map (fun s -> Sample.cpu s vm_id) (latest t)
  | samples ->
    let sum = List.fold_left (fun acc s -> acc + Sample.cpu s vm_id) 0 samples in
    Some (sum / List.length samples)

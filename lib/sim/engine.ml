(* Discrete-event simulation core: a clock and an event heap. Event
   callbacks may schedule further events. A cancelled event leaves the
   heap at once (the heap is indexed), so the heap holds live events
   only. *)

module Obs = Entropy_obs.Obs
module Metrics = Entropy_obs.Metrics

let m_events = lazy (Metrics.counter "sim.events")

type t = {
  mutable now : float;
  queue : (unit -> unit) Heap.t;
  mutable executed : int;
  mutable cancelled : int;
  mutable chooser : (int -> int) option;
      (* schedule hook: picks which of the n events tied at the next
         timestamp runs first (insertion order); None = FIFO *)
}

let create () =
  { now = 0.; queue = Heap.create (); executed = 0; cancelled = 0; chooser = None }

let set_chooser t chooser = t.chooser <- chooser

let now t = t.now
let pending t = Heap.length t.queue
let cancelled t = t.cancelled
let executed t = t.executed

type handle = (unit -> unit) Heap.entry

let schedule t ~at run =
  if at < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at=%.3f is in the past (now=%.3f)" at
         t.now);
  Heap.push t.queue at run

let schedule_after t ~delay run = schedule t ~at:(t.now +. delay) run

(* Cancelling an event that already ran (or was already cancelled) is a
   no-op and is not counted. *)
let cancel t (ev : handle) =
  if Heap.mem t.queue ev then begin
    Heap.remove t.queue ev;
    t.cancelled <- t.cancelled + 1
  end

let step t =
  if Heap.is_empty t.queue then false
  else begin
    let time = Heap.top_prio t.queue in
    let run =
      match t.chooser with
      | None -> Heap.pop_top t.queue
      | Some choose ->
        let n = Heap.tied_count t.queue in
        if n <= 1 then Heap.pop_top t.queue
        else Heap.pop_tied t.queue (choose n)
    in
    if time > t.now then t.now <- time;
    t.executed <- t.executed + 1;
    if !Obs.enabled then Metrics.incr (Lazy.force m_events);
    run ();
    true
  end

let run ?(until = infinity) ?(max_events = max_int) t =
  let rec go n =
    if
      n < max_events
      && (not (Heap.is_empty t.queue))
      && Heap.top_prio t.queue <= until
    then begin
      ignore (step t);
      go (n + 1)
    end
  in
  go 0

(* The monitoring service head (Ganglia stand-in). A collector polls a
   source of raw per-VM CPU readings, keeps a bounded history, and
   answers the control loop's observation requests with a smoothed
   demand vector.

   The paper reports that Entropy accumulates fresh monitoring data for
   about 10 seconds before each iteration; [smoothing_span] is that
   accumulation window. *)

open Entropy_core
module Obs = Entropy_obs.Obs
module Metrics = Entropy_obs.Metrics

let m_dropped = lazy (Metrics.counter "monitor.dropped_samples")

type source = unit -> float * int array
(* current time, per-VM CPU consumption *)

let smoothing_span = 10.

type t = {
  source : source;
  history : History.t;
  mutable last_cpu : int array;  (* the latest admitted sample's array *)
  mutable polls : int;
  mutable dropped : int;
}

let create source =
  {
    source;
    history = History.create ();
    last_cpu = [||];
    polls = 0;
    dropped = 0;
  }

(* A real monitoring bus delivers garbage now and then: readings with a
   clock that jumped backwards (reordered delivery, a resynced NTP
   source) or impossible CPU values. Admitting them would corrupt the
   smoothing window the decisions are made from, so validation rejects
   the sample whole. Equal timestamps are fine — several services
   legitimately poll within the same instant. The array of the latest
   admitted sample was checked then and never changes since (the
   source's promise): it is not scanned again. *)
let valid t ~time ~cpu =
  Float.is_finite time
  && (match History.latest t.history with
     | Some latest -> time >= Sample.time latest
     | None -> true)
  && (cpu == t.last_cpu || Array.for_all (fun c -> c >= 0) cpu)

(* Samples keep the source's array: a reading that did not change since
   the last poll shares it with the latest sample. *)
let poll t =
  let time, cpu = t.source () in
  t.polls <- t.polls + 1;
  if valid t ~time ~cpu then begin
    t.last_cpu <- cpu;
    History.add t.history (Sample.make ~time ~cpu)
  end
  else begin
    t.dropped <- t.dropped + 1;
    if !Obs.enabled then Metrics.incr (Lazy.force m_dropped)
  end

let polls t = t.polls
let dropped t = t.dropped
let history t = t.history

(* Smoothed demand: per-VM average over the accumulation window, which
   is filtered once for all VMs. An empty history triggers an immediate
   poll. *)
let demand t =
  if History.latest t.history = None then poll t;
  match History.latest t.history with
  | None -> Demand.make ~vm_count:0 ~default:0
  | Some latest ->
    let now = Sample.time latest in
    let vm_count = Sample.vm_count latest in
    let window = History.window t.history ~now ~span:smoothing_span in
    Demand.of_fn ~vm_count (fun vm_id ->
        match History.average_of t.history window vm_id with
        | Some v -> v
        | None -> 0)

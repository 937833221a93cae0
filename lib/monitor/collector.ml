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

type source = unit -> float * int Chunked.t
(* current time, per-VM CPU consumption *)

let smoothing_span = 10.

type t = {
  source : source;
  history : History.t;
  mutable polls : int;
  mutable dropped : int;
}

let create source =
  {
    source;
    history = History.create ();
    polls = 0;
    dropped = 0;
  }

(* A real monitoring bus delivers garbage now and then: readings with a
   clock that jumped backwards (reordered delivery, a resynced NTP
   source) or impossible CPU values. Admitting them would corrupt the
   smoothing window the decisions are made from, so validation rejects
   the sample whole. Equal timestamps are fine — several services
   legitimately poll within the same instant. The chunks a reading
   shares with the latest admitted sample were checked then, and a
   chunk never changes once shared: only the new chunks are scanned. *)
let valid t ~time ~cpu =
  let sane c = c >= 0 in
  Float.is_finite time
  &&
  match History.latest t.history with
  | Some latest ->
    time >= Sample.time latest
    && Chunked.for_all_fresh ~old:(Sample.readings latest) sane cpu
  | None -> Chunked.for_all sane cpu

(* Samples keep the source's vector: the chunks that did not move since
   the last poll are shared with the latest sample. *)
let poll t =
  let time, cpu = t.source () in
  t.polls <- t.polls + 1;
  if valid t ~time ~cpu then History.add t.history (Sample.make ~time ~cpu)
  else begin
    t.dropped <- t.dropped + 1;
    if !Obs.enabled then Metrics.incr (Lazy.force m_dropped)
  end

let polls t = t.polls
let dropped t = t.dropped
let history t = t.history

(* Smoothed demand: per-VM average over the accumulation window, which
   is filtered and counted once for all VMs. A chunk every window sample
   shares with the latest averages to the latest's entries (n equal
   readings sum to n times one), so the demand is an edit of the latest
   readings that rewrites only the other chunks, and shares these. An
   empty window (the latest sample is always in it) would fall back to
   the latest readings the same way. An empty history triggers an
   immediate poll. *)
let demand t =
  if History.latest t.history = None then poll t;
  match History.latest t.history with
  | None -> Demand.make ~vm_count:0 ~default:0
  | Some latest ->
    let now = Sample.time latest in
    let cur = Sample.readings latest in
    let vm_count = Chunked.length cur in
    let window =
      List.map Sample.readings
        (History.window t.history ~now ~span:smoothing_span)
    in
    let n = List.length window in
    Demand.edit cur (fun d ->
        for c = 0 to Chunked.chunk_count cur - 1 do
          if not (List.for_all (fun r -> Chunked.shares_chunk r cur c) window)
          then begin
            let lo = c * Chunked.width in
            for vm = lo to min vm_count (lo + Chunked.width) - 1 do
              Demand.write d vm
                (List.fold_left (fun acc r -> acc + Chunked.get r vm) 0 window
                / n)
            done
          end
        done)

(* Per-layer self times from one traced operation.

   Only wall-clock spans on [Trace.tid_main] count: the simulated-time
   track carries [sim.*] spans stamped in simulated seconds, which
   [Trace.aggregate] would mix into its totals. Spans on one thread nest,
   so a stack over start-ordered spans finds each span's parent; a span's
   self time is its duration minus its direct children's. *)

module Trace = Entropy_obs.Trace

(* Which layer a span's self time belongs to. [root] names the layer of
   the [bench.op] span itself: the code between the public call and the
   first instrumented child (the simulator loop, the daemon loop, or
   benchmark glue). *)
let layer_of ~root = function
  | "bench.op" -> root
  | "loop.decide" | "daemon.decide" -> "rjsp"
  | "optimizer.plan" | "planner.build" -> "planner"
  | "optimizer.build_model" -> "cp_model"
  | "optimizer.search" | "cp.search" | "cp.propagate" -> "cp_search"
  | "place.portfolio" -> "place_portfolio"
  | "place.sa" -> "place_sa"
  | "place.lns" -> "place_lns"
  | "fault.repair" -> "repair"
  | "journal.replay" -> "journal_replay"
  | "bench.journal.load" -> "journal_load"
  | "bench.resume" -> "daemon"
  | "bench.flight.timeline" -> "flight_timeline"
  | "bench.flight.critical" -> "flight_critical"
  | _ -> "other"

let layers =
  [
    "loop"; "daemon"; "bench"; "rjsp"; "planner"; "cp_model"; "cp_search";
    "place_portfolio"; "place_sa"; "place_lns"; "repair"; "journal_load";
    "journal_replay"; "flight_timeline"; "flight_critical"; "other";
  ]

type op_profile = {
  self_us : (string * float) list;  (** per layer, summed *)
  root_us : float;  (** duration of the [bench.op] span *)
  outside_us : float;  (** main-track span time outside [bench.op] *)
  durations : (string * float list) list;  (** per span name, in us *)
}

(* Slack for float rounding when comparing span ends (us). *)
let eps = 1e-3

let profile ~root events =
  let spans =
    List.filter
      (fun (e : Trace.event) -> e.Trace.tid = Trace.tid_main && e.Trace.kind = Trace.Complete)
      events
    |> List.stable_sort (fun (a : Trace.event) b ->
           match Float.compare a.Trace.ts_us b.Trace.ts_us with
           | 0 -> Float.compare b.Trace.dur_us a.Trace.dur_us
           | c -> c)
    |> Array.of_list
  in
  let n = Array.length spans in
  let children = Array.make n 0. in
  let parent = Array.make n (-1) in
  let stack = ref [] in
  let end_of i = spans.(i).Trace.ts_us +. spans.(i).Trace.dur_us in
  Array.iteri
    (fun i (e : Trace.event) ->
      let rec pop () =
        match !stack with
        | top :: rest when end_of top <= e.Trace.ts_us +. eps ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | top :: _ ->
        parent.(i) <- top;
        children.(top) <- children.(top) +. e.Trace.dur_us
      | [] -> ());
      stack := i :: !stack)
    spans;
  let rec under_root i =
    i >= 0 && (spans.(i).Trace.name = "bench.op" || under_root parent.(i))
  in
  let self = Hashtbl.create 16 in
  let durations = Hashtbl.create 16 in
  let root_us = ref 0. and outside_us = ref 0. in
  Array.iteri
    (fun i (e : Trace.event) ->
      let name = e.Trace.name in
      Hashtbl.replace durations name
        (e.Trace.dur_us :: Option.value ~default:[] (Hashtbl.find_opt durations name));
      if name = "bench.op" then root_us := !root_us +. e.Trace.dur_us;
      if under_root i then begin
        let l = layer_of ~root name in
        let prev = Option.value ~default:0. (Hashtbl.find_opt self l) in
        Hashtbl.replace self l (prev +. e.Trace.dur_us -. children.(i))
      end
      else if parent.(i) < 0 then outside_us := !outside_us +. e.Trace.dur_us)
    spans;
  {
    self_us = Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [];
    root_us = !root_us;
    outside_us = !outside_us;
    durations = Hashtbl.fold (fun k v acc -> (k, v) :: acc) durations [];
  }

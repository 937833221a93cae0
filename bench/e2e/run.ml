(* One workload in this process: set up, measure, check, report.

   Set-up is the untimed warm-up operation on the workload's fixed
   warm-up input; an untraced run does it five times and reports the
   median. It then times operations on inputs drawn from the workload's
   pool until the budget is spent and the last batch of operations is
   complete. A traced run (the per-layer metrics) times the first half of
   the budget untraced, then reruns exactly those operations with
   [Obs.enabled], each under a [bench.op] span, and checks itself: the
   traced operations reproduce the untraced results, the trace ring
   dropped nothing, and the layers' self times add up to the root span. *)

module W = Workloads
module Obs = Entropy_obs.Obs
module Trace = Entropy_obs.Trace
module Metrics = Entropy_obs.Metrics
module Json = Entropy_obs.Json

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** in catalogue order *)
  problems : string list;
}

let now = Unix.gettimeofday
let setup_reps = 5
let min_ops = 5

(* Large enough for every event of one operation (the CP workloads record
   a few tens of thousands): the analysis runs per operation. *)
let trace_capacity = 1 lsl 20

let units =
  List.map
    (fun m -> (m.Catalogue.name, m.Catalogue.unit_))
    (Catalogue.end_to_end @ Catalogue.per_layer)

(* Per-layer metrics reported as measured, so the correction can be
   checked or redone. *)
let as_measured = [ "op_wall_ms.p50"; "hostspeed.kernel_ms" ]

(* Per-layer times and rates of a work-bound workload, read at reference
   host speed. *)
let at_reference_speed (w : W.t) metrics =
  if w.W.wall_clock_bound then metrics
  else
    let k = Hostspeed.scale () in
    List.map
      (fun (name, v) ->
        match List.assoc name units with
        | _ when List.mem name as_measured -> (name, v)
        | "s" | "ms" -> (name, v *. k)
        | "1/s" -> (name, v /. k)
        | _ -> (name, v))
      metrics

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Working files live under the working directory, never in the system
   temp dir, and go away at exit. *)
let work_dir name =
  let root = ".e2e-tmp" in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let dir = Filename.concat root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  remove_tree dir;
  Sys.mkdir dir 0o755;
  at_exit (fun () ->
      remove_tree dir;
      if Sys.file_exists root && Sys.readdir root = [||] then Sys.rmdir root);
  dir

type timed = {
  op_s : float;  (** at reference host speed *)
  wall_s : float;  (** as measured *)
  res : W.op_result;
  alloc_words : float;
  majors : int;
}

let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* Collect the garbage untimed work left, so timed work does only its own
   GC, and time the calibration kernel. *)
let settle () =
  Gc.full_major ();
  Hostspeed.sample ()

(* [f ()], its wall time, and its time at reference host speed: for a
   work-bound workload, the wall time read from kernel samples taken right
   before and right after it, so a slowdown of the host lasting seconds
   is cancelled for the operations it hits, not only on average. *)
let timed (w : W.t) f =
  let k0 = settle () in
  let t0 = now () in
  let x = f () in
  let dt = now () -. t0 in
  let k1 = settle () in
  (x, dt, if w.W.wall_clock_bound then dt else dt *. Hostspeed.reference_s /. ((k0 +. k1) /. 2.))

(* Set-up time and the warm-up operation's problems. *)
let set_up (w : W.t) ~tmp =
  W.forget_inputs ();
  let problems, _, dt =
    timed w (fun () ->
        let op = w.W.op ~tmp ~traced:false w.W.warmup in
        op.W.run ();
        (op.W.finish ()).W.problems)
  in
  (dt, problems)

(* Operations 0, 1, ... until [min_ops] are done, [seconds] have passed
   and the last batch is complete. *)
let measure (w : W.t) ~tmp ~seed ~seconds =
  let t_start = now () in
  let rec go i acc =
    if i >= min_ops && now () -. t_start >= seconds && i mod w.W.batch = 0 then List.rev acc
    else begin
      let op = w.W.op ~tmp ~traced:false (w.W.input ~seed i) in
      let (alloc_words, majors), wall_s, op_s =
        timed w (fun () ->
            let a0 = allocated_words () and m0 = major_collections () in
            op.W.run ();
            (allocated_words () -. a0, major_collections () - m0))
      in
      go (i + 1) ({ op_s; wall_s; res = op.W.finish (); alloc_words; majors } :: acc)
    end
  in
  go 0 []

let op_problems ops = List.concat_map (fun t -> t.res.W.problems) ops
let failing_ops ops = List.length (List.filter (fun t -> t.res.W.problems <> []) ops)

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* -- end-to-end ------------------------------------------------------------ *)

let end_to_end (w : W.t) ~seed ~seconds =
  let tmp = work_dir w.W.name in
  let first = set_up w ~tmp in
  (* the peak heap of set-up: the warm-up input is fixed, so this does
     not depend on which operations a run happens to draw *)
  let heap = heap_mb () in
  let setups = first :: List.init (setup_reps - 1) (fun _ -> set_up w ~tmp) in
  let ops = measure w ~tmp ~seed ~seconds in
  let sum f = Stats.sum_by (fun t -> f t.res.W.outcome) ops in
  let switches = sum (fun o -> float_of_int o.W.switches) in
  let op_ms = List.map (fun t -> 1000. *. t.op_s) ops in
  let setup_problems = List.concat_map snd setups in
  let failed = failing_ops ops + if setup_problems = [] then 0 else 1 in
  {
    correct = failed = 0;
    attempted = List.length ops;
    failed;
    metrics =
      [
        ("setup_s", Stats.median (List.map fst setups));
        ("op_ms.p50", Stats.median op_ms);
        ("op_ms.p90", Stats.percentile op_ms 0.9);
        ("switch_cost", Stats.ratio (sum (fun o -> float_of_int o.W.cost)) switches);
        ("switch_s", Stats.ratio (sum (fun o -> o.W.switch_time_s)) switches);
        ("makespan_s", Stats.mean (List.map (fun t -> t.res.W.outcome.W.makespan_s) ops));
        ( "served_share",
          Stats.ratio (sum (fun o -> float_of_int o.W.served)) (sum (fun o -> float_of_int o.W.vjobs)) );
        ("heap_mb", heap);
      ];
    problems = setup_problems @ op_problems ops;
  }

(* -- traced ---------------------------------------------------------------- *)

type traced_op = {
  profile : Layers.op_profile;
  counters : (string * int) list;
  t_res : W.op_result;
  t_op : float;  (** at reference host speed *)
}

let traced_pass (w : W.t) ~tmp ~seed ~count ~chrome =
  Obs.enabled := true;
  Trace.set_capacity trace_capacity;
  let problems = ref [] in
  let report fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let ops =
    List.init count (fun i ->
        let op = w.W.op ~tmp ~traced:true (w.W.input ~seed i) in
        Obs.reset ();
        let (), _, t_op = timed w (fun () -> Obs.span ~name:"bench.op" op.W.run) in
        let events = Trace.events () and dropped = Trace.dropped () in
        let counters = Metrics.counters () in
        (match chrome with Some path when i = 0 -> Obs.write_trace path | _ -> ());
        if dropped > 0 then report "op %d: trace dropped %d events" i dropped;
        let profile = Layers.profile ~root:w.W.root_layer events in
        let self = Stats.sum_by snd profile.Layers.self_us in
        if Float.abs (self -. profile.Layers.root_us) > 0.01 *. profile.Layers.root_us then
          report "op %d: layer self times sum to %.0f us, root span %.0f us" i self
            profile.Layers.root_us;
        if profile.Layers.outside_us > 0. then
          report "op %d: %.0f us of spans outside bench.op" i profile.Layers.outside_us;
        { profile; counters; t_res = op.W.finish (); t_op })
  in
  Obs.enabled := false;
  (ops, List.rev !problems)

let per_layer_metrics ~untraced ~traced =
  let per_op x = Stats.ratio x (float_of_int (List.length traced)) in
  let per_untraced f =
    Stats.ratio (Stats.sum_by f untraced) (float_of_int (List.length untraced))
  in
  let assoc0 k l = Option.value ~default:0. (List.assoc_opt k l) in
  let self l = Stats.sum_by (fun t -> assoc0 l t.profile.Layers.self_us) traced /. 1000. in
  let durations names =
    List.concat_map
      (fun t ->
        List.concat_map
          (fun nm -> Option.value ~default:[] (List.assoc_opt nm t.profile.Layers.durations))
          names)
      traced
  in
  let count names = float_of_int (List.length (durations names)) in
  let c name =
    Stats.sum_by
      (fun t -> float_of_int (Option.value ~default:0 (List.assoc_opt name t.counters)))
      traced
  in
  let extra name = Stats.sum_by (fun t -> assoc0 name t.t_res.W.extras) traced in
  let decide_ms = List.map (fun us -> us /. 1000.) (durations [ "loop.decide"; "daemon.decide" ]) in
  let pct xs p = if xs = [] then 0. else Stats.percentile xs p in
  let nodes = c "cp.search.nodes" and moves = c "place.moves" in
  List.map (fun l -> ("self_ms." ^ l, per_op (self l))) Layers.layers
  @ [
      ("decide.calls", per_op (count [ "loop.decide"; "daemon.decide" ]));
      ("decide_ms.p50", pct decide_ms 0.5);
      ("decide_ms.p95", pct decide_ms 0.95);
      ("cp.nodes", per_op nodes);
      ("cp.fails", per_op (c "cp.search.fails"));
      ("cp.nodes_per_s", Stats.ratio nodes (self "cp_search" /. 1000.));
      ("cp.propagations_per_node", Stats.ratio (c "cp.store.propagations") nodes);
      ("planner.calls", per_op (count [ "planner.build" ]));
      ("planner.actions", per_op (c "planner.actions"));
      ("planner.pools", per_op (c "planner.pools"));
      ("place.moves_per_s", Stats.ratio moves ((self "place_sa" +. self "place_lns") /. 1000.));
      ("place.accept_ratio", Stats.ratio (c "place.accepted") moves);
      ("place.incumbents", per_op (c "place.incumbents"));
      ("place.improved_share", per_op (extra "place.improved"));
      ("place.winner_share.ffd", per_op (extra "place.winner.ffd"));
      ("place.winner_share.sa", per_op (extra "place.winner.sa"));
      ("place.winner_share.lns", per_op (extra "place.winner.lns"));
      ("place.winner_share.cp", per_op (extra "place.winner.cp"));
      ("place.overrun_ms", per_op (extra "place.overrun_ms"));
      ("verifier.ms_per_plan", Stats.ratio (extra "verifier.ms") (extra "verifier.plans"));
      ("sim.events", per_op (c "sim.events"));
      ("sim.events_per_s", Stats.ratio (c "sim.events") ((self "loop" +. self "daemon") /. 1000.));
      ("daemon.rounds", per_op (c "daemon.rounds"));
      ("daemon.deferred_share", Stats.ratio (c "daemon.rounds.deferred") (c "daemon.rounds"));
      ( "daemon.coalesced_share",
        Stats.ratio (extra "daemon.triggers_coalesced") (extra "daemon.triggers_raised") );
      ("repair.calls", per_op (count [ "fault.repair" ]));
      ("journal.records", per_op (extra "journal.records"));
      ("journal.bytes", per_op (extra "journal.bytes"));
      ("journal.bytes_per_switch", Stats.ratio (extra "journal.bytes") (extra "journal.switches"));
      ("journal.append_ms", per_op (extra "journal.append_ms"));
      ("resume.boot_ms", per_op (Stats.sum_by Fun.id (durations [ "bench.resume" ]) /. 1000.));
      ("gc.alloc_mb", per_untraced (fun t -> t.alloc_words *. float_of_int (Sys.word_size / 8) /. 1e6));
      ("gc.major", per_untraced (fun t -> float_of_int t.majors));
      ( "obs.overhead_ratio",
        Stats.ratio (Stats.sum_by (fun t -> t.t_op) traced) (Stats.sum_by (fun t -> t.op_s) untraced) );
      ("op_wall_ms.p50", Stats.median (List.map (fun t -> 1000. *. t.wall_s) untraced));
      ("hostspeed.kernel_ms", 1000. *. Hostspeed.median_s ());
    ]

let traced (w : W.t) ~seed ~seconds ~chrome =
  let tmp = work_dir w.W.name in
  let _, setup_problems = set_up w ~tmp in
  let untraced = measure w ~tmp ~seed ~seconds:(seconds /. 2.) in
  let traced, trace_problems =
    traced_pass w ~tmp ~seed ~count:(List.length untraced) ~chrome
  in
  let digest_problems =
    List.concat
      (List.mapi
         (fun i (u, t) ->
           W.problem (u.res.W.digest = t.t_res.W.digest) "op %d: traced run gave %s, untraced %s" i
             t.t_res.W.digest u.res.W.digest)
         (List.combine untraced traced))
  in
  let traced_failures = List.filter (fun t -> t.t_res.W.problems <> []) traced in
  let failed =
    failing_ops untraced + List.length traced_failures + if setup_problems = [] then 0 else 1
  in
  let self_check = trace_problems @ digest_problems in
  {
    correct = failed = 0 && self_check = [];
    attempted = List.length untraced + List.length traced;
    failed;
    metrics = at_reference_speed w (per_layer_metrics ~untraced ~traced);
    problems =
      setup_problems @ op_problems untraced
      @ List.concat_map (fun t -> t.t_res.W.problems) traced_failures
      @ self_check;
  }

(* -- report ---------------------------------------------------------------- *)

(* The fields of the result's JSON object. *)
let fields r =
  [
    ("correct", Json.Bool r.correct);
    ("attempted", Json.Int r.attempted);
    ("failed", Json.Int r.failed);
    ( "metrics",
      Json.Obj
        (List.map
           (fun (name, v) ->
             ( name,
               Json.Obj [ ("value", Json.Float v); ("unit", Json.String (List.assoc name units)) ]
             ))
           r.metrics) );
  ]

let print_table (w : W.t) ~seed ~trace r =
  Printf.printf "%s (seed %d, %s): %d operations, %d failed\n" w.W.name seed
    (if trace then "traced" else "untraced")
    r.attempted r.failed;
  Printf.printf "  host speed: calibration kernel %.2f ms (median of %d); %s\n"
    (1000. *. Hostspeed.median_s ())
    (List.length !Hostspeed.samples)
    (if w.W.wall_clock_bound then "deadline-bound, times as measured"
     else Printf.sprintf "times read at a %.2f ms kernel" (1000. *. Hostspeed.reference_s));
  List.iter
    (fun (name, v) -> Printf.printf "  %-28s %14.4f %s\n" name v (List.assoc name units))
    r.metrics;
  List.iter (fun p -> Printf.printf "  FAILED: %s\n" p) r.problems

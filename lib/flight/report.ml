(* Rendering of flight analyses: text report, JSON, and the Chrome
   trace-event gantt view. *)

open Entropy_core
module R = Entropy_journal.Recovery
module T = Timeline
module C = Critical
module Json = Entropy_obs.Json
module Trace = Entropy_obs.Trace

type analysis = R.switch * C.t

let analyze_records ?top_k records =
  List.map
    (fun sw -> (sw, C.analyze ?top_k sw))
    (T.of_records records)

let healthy ((sw, an) : analysis) =
  an.C.exact && (an.C.path <> [] || not (Array.exists T.executed sw.slots))

(* -- text ------------------------------------------------------------------ *)

let pct total v = if total <= 0. then 0. else 100. *. v /. total

let pp_bucket_row ppf name total v =
  Fmt.pf ppf "  %-18s %9.2f s %6.1f%%@," name v (pct total v)

let edge_label (sw : R.switch) = function
  | C.Start -> "start"
  | C.Dep j -> Fmt.str "dep %a" Action.pp sw.slots.(j).action
  | C.Barrier p -> Fmt.str "barrier(pool %d)" p

let pp ppf ((sw, an) : analysis) =
  let b = an.C.buckets in
  let total = an.C.makespan_s in
  Fmt.pf ppf "@[<v>switch %d: %d actions in %d pools, makespan %.2f s%s@,"
    sw.switch
    (Plan.action_count sw.plan)
    (Plan.pool_count sw.plan)
    total
    (match sw.end_at with
    | Some _ when sw.aborted -> " [aborted]"
    | Some _ -> ""
    | None -> " [cut mid-flight]");
  if sw.unmatched > 0 then
    Fmt.pf ppf "  warning: %d journal records matched no plan action@,"
      sw.unmatched;
  Fmt.pf ppf "attribution (end-chain decomposition):@,";
  pp_bucket_row ppf "action work" total b.C.work_s;
  pp_bucket_row ppf "contention" total b.C.contention_s;
  pp_bucket_row ppf "pool-barrier wait" total b.C.barrier_s;
  pp_bucket_row ppf "dependency wait" total b.C.dependency_s;
  pp_bucket_row ppf "retry/backoff" total b.C.retry_s;
  pp_bucket_row ppf "recovery/tail" total b.C.recovery_s;
  Fmt.pf ppf "  %-18s %9.2f s %6.1f%%  (%s makespan)@," "total"
    an.C.bucket_sum_s
    (pct total an.C.bucket_sum_s)
    (if an.C.exact then "=" else "!=");
  Fmt.pf ppf "critical path (%d actions, span %.2f s):@,"
    (List.length an.C.path) an.C.path_span_s;
  List.iter
    (fun (s : C.step) ->
      Fmt.pf ppf
        "  [pool %d] %-28s start %8.2f  gap %6.2f  retry %6.2f  work %6.2f  \
         cont %6.2f  via %s@,"
        s.C.pool
        (Fmt.str "%a" Action.pp s.C.action)
        s.C.start_s s.C.gap_s s.C.retry_s s.C.work_s s.C.contention_s
        (edge_label sw s.C.edge))
    an.C.path;
  if an.C.what_if <> [] then begin
    Fmt.pf ppf "what-if (makespan if the action were free):@,";
    List.iter
      (fun (i, m) ->
        Fmt.pf ppf "  %-28s -> %8.2f s  (saves %.2f s, %.1f%%)@,"
          (Fmt.str "%a" Action.pp sw.slots.(i).action)
          m (total -. m)
          (pct total (total -. m)))
      an.C.what_if
  end;
  Fmt.pf ppf "no-barrier replay (continuous execution): %.2f s@,"
    an.C.no_barrier_makespan_s;
  let drift_pct =
    if an.C.est_makespan_s <= 0. then 0.
    else 100. *. (total -. an.C.est_makespan_s) /. an.C.est_makespan_s
  in
  Fmt.pf ppf
    "estimate vs actual: cost %d MB (rederived %d%s), estimated %.2f s, \
     observed %.2f s, drift %+.1f%%@,"
    an.C.est_cost_mb an.C.rederived_cost_mb
    (if an.C.est_cost_mb = an.C.rederived_cost_mb then ", ok" else ", MISMATCH")
    an.C.est_makespan_s total drift_pct;
  (let worst =
     List.sort
       (fun (_, e1, o1) (_, e2, o2) ->
         Float.compare (Float.abs (o2 -. e2)) (Float.abs (o1 -. e1)))
       an.C.drift
   in
   match worst with
   | [] -> ()
   | _ ->
     Fmt.pf ppf "worst per-action estimates:@,";
     List.iteri
       (fun k (i, est, obs) ->
         if k < 3 then
           Fmt.pf ppf "  %-28s est %7.2f s  actual %7.2f s  (%+.1f%%)@,"
             (Fmt.str "%a" Action.pp sw.slots.(i).action)
             est obs
             (if est <= 0. then 0. else 100. *. (obs -. est) /. est))
       worst);
  Fmt.pf ppf "@]"

let pp_summary ppf (analyses : analysis list) =
  let repairs = C.repair_switches (List.map fst analyses) in
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun ((sw : R.switch), an) ->
      let b = an.C.buckets in
      let total = an.C.makespan_s in
      Fmt.pf ppf
        "switch %d%s: makespan %.2f s — work %.0f%%, contention %.0f%%, \
         barrier %.0f%%, retry %.0f%%%s@,"
        sw.switch
        (if List.mem sw.switch repairs then " (repair)" else "")
        total (pct total b.C.work_s)
        (pct total b.C.contention_s)
        (pct total b.C.barrier_s)
        (pct total b.C.retry_s)
        (if an.C.exact then "" else " [INEXACT]"))
    analyses;
  (match analyses with
  | _ :: _ :: _ | [ _ ] ->
    let agg, total = C.aggregate analyses in
    Fmt.pf ppf
      "episode: %.2f s switching — work %.0f%%, contention %.0f%%, barrier \
       %.0f%%, retry %.0f%%, recovery %.0f%%@,"
      total
      (pct total agg.C.work_s)
      (pct total agg.C.contention_s)
      (pct total agg.C.barrier_s)
      (pct total agg.C.retry_s)
      (pct total agg.C.recovery_s)
  | [] -> Fmt.pf ppf "no switches in journal@,");
  Fmt.pf ppf "@]"

(* -- JSON ------------------------------------------------------------------ *)

let buckets_json (b : C.buckets) =
  Json.Obj
    [
      ("work_s", Json.Float b.C.work_s);
      ("contention_s", Json.Float b.C.contention_s);
      ("barrier_s", Json.Float b.C.barrier_s);
      ("dependency_s", Json.Float b.C.dependency_s);
      ("retry_s", Json.Float b.C.retry_s);
      ("recovery_s", Json.Float b.C.recovery_s);
    ]

let edge_json = function
  | C.Start -> Json.String "start"
  | C.Dep j -> Json.Obj [ ("dep", Json.Int j) ]
  | C.Barrier p -> Json.Obj [ ("barrier", Json.Int p) ]

let step_json (sw : R.switch) (s : C.step) =
  Json.Obj
    [
      ("index", Json.Int s.C.index);
      ("action", Json.String (Fmt.str "%a" Action.pp s.C.action));
      ("pool", Json.Int s.C.pool);
      ("edge", edge_json s.C.edge);
      ("start_s", Json.Float s.C.start_s);
      ("finish_s", Json.Float s.C.finish_s);
      ("gap_s", Json.Float s.C.gap_s);
      ("retry_s", Json.Float s.C.retry_s);
      ("work_s", Json.Float s.C.work_s);
      ("contention_s", Json.Float s.C.contention_s);
      ("vm", Json.Int (Action.vm sw.slots.(s.C.index).action));
    ]

let switch_json ((sw, an) : analysis) =
  Json.Obj
    [
      ("switch", Json.Int sw.switch);
      ("makespan_s", Json.Float an.C.makespan_s);
      ("actions", Json.Int (Plan.action_count sw.plan));
      ("pools", Json.Int (Plan.pool_count sw.plan));
      ("ended", Json.Bool (sw.end_at <> None));
      ("aborted", Json.Bool sw.aborted);
      ("unmatched_records", Json.Int sw.unmatched);
      ("exact", Json.Bool an.C.exact);
      ("buckets", buckets_json an.C.buckets);
      ("bucket_sum_s", Json.Float an.C.bucket_sum_s);
      ("path_span_s", Json.Float an.C.path_span_s);
      ("path", Json.List (List.map (step_json sw) an.C.path));
      ( "what_if",
        Json.List
          (List.map
             (fun (i, m) ->
               Json.Obj
                 [
                   ("index", Json.Int i);
                   ( "action",
                     Json.String
                       (Fmt.str "%a" Action.pp sw.slots.(i).action) );
                   ("makespan_s", Json.Float m);
                 ])
             an.C.what_if) );
      ("no_barrier_makespan_s", Json.Float an.C.no_barrier_makespan_s);
      ( "estimate",
        Json.Obj
          [
            ("cost_mb", Json.Int an.C.est_cost_mb);
            ("rederived_cost_mb", Json.Int an.C.rederived_cost_mb);
            ("makespan_s", Json.Float an.C.est_makespan_s);
            ("observed_s", Json.Float an.C.makespan_s);
          ] );
      ( "action_drift",
        Json.List
          (List.map
             (fun (i, est, obs) ->
               Json.Obj
                 [
                   ("index", Json.Int i);
                   ("est_s", Json.Float est);
                   ("observed_s", Json.Float obs);
                 ])
             an.C.drift) );
    ]

let to_json ?trace_dropped analyses =
  let agg, total = C.aggregate analyses in
  Json.Obj
    ([
       ("switches", Json.List (List.map switch_json analyses));
       ( "episode",
         Json.Obj
           [
             ("total_s", Json.Float total); ("buckets", buckets_json agg);
           ] );
     ]
    @
    match trace_dropped with
    | Some n -> [ ("trace_dropped", Json.Int n) ]
    | None -> [])

(* -- gantt (Chrome trace-event) -------------------------------------------- *)

let tid_markers = 1
let tid_critical = 2
let tid_node n = 10 + n

let us t = t *. 1e6

let gantt_events (analyses : analysis list) =
  let nodes = Hashtbl.create 16 in
  let events = ref [] in
  let emit e = events := e :: !events in
  List.iter
    (fun ((sw, an) : analysis) ->
      let scat = Fmt.str "switch%d" sw.R.switch in
      emit
        {
          Trace.name = Fmt.str "switch %d begin" sw.R.switch;
          cat = scat;
          kind = Trace.Instant;
          ts_us = us sw.R.begun_at;
          dur_us = 0.;
          tid = tid_markers;
          args = [ ("actions", Trace.I (Plan.action_count sw.R.plan)) ];
        };
      List.iter
        (fun (p, t) ->
          emit
            {
              Trace.name = Fmt.str "pool %d committed" p;
              cat = scat;
              kind = Trace.Instant;
              ts_us = us t;
              dur_us = 0.;
              tid = tid_markers;
              args = [];
            })
        sw.R.commits;
      (match sw.R.end_at with
      | Some t ->
        emit
          {
            Trace.name =
              Fmt.str "switch %d %s" sw.R.switch
                (if sw.R.aborted then "aborted" else "end");
            cat = scat;
            kind = Trace.Instant;
            ts_us = us t;
            dur_us = 0.;
            tid = tid_markers;
            args = [];
          }
      | None -> ());
      let on_path = Array.make (Array.length sw.R.slots) false in
      List.iter (fun (s : C.step) -> on_path.(s.C.index) <- true) an.C.path;
      Array.iteri
        (fun i (a : R.slot) ->
          match T.first_start a with
          | None -> ()
          | Some t0 ->
            let t1 = Float.max t0 (T.finish_time sw a) in
            let node =
              match (Action.destination a.action, Action.source a.action)
              with
              | Some n, _ | None, Some n -> n
              | None, None -> 0
            in
            Hashtbl.replace nodes node ();
            emit
              {
                Trace.name = Fmt.str "%a" Action.pp a.action;
                cat = scat;
                kind = Trace.Complete;
                ts_us = us t0;
                dur_us = us (t1 -. t0);
                tid = tid_node node;
                args =
                  [
                    ("switch", Trace.I sw.R.switch);
                    ("pool", Trace.I a.record_pool);
                    ("attempts", Trace.I (List.length a.attempts));
                    ( "failed",
                      Trace.B
                        (match a.terminal with
                        | Some (R.Failed _) -> true
                        | _ -> false) );
                    ("critical", Trace.B on_path.(i));
                  ];
              })
        sw.R.slots;
      List.iter
        (fun (s : C.step) ->
          let t0 = sw.R.begun_at +. s.C.start_s -. s.C.gap_s in
          let t1 = sw.R.begun_at +. s.C.finish_s in
          emit
            {
              Trace.name = Fmt.str "%a" Action.pp s.C.action;
              cat = "critical";
              kind = Trace.Complete;
              ts_us = us t0;
              dur_us = us (t1 -. t0);
              tid = tid_critical;
              args =
                [
                  ("gap_s", Trace.F s.C.gap_s);
                  ("retry_s", Trace.F s.C.retry_s);
                  ("work_s", Trace.F s.C.work_s);
                  ("contention_s", Trace.F s.C.contention_s);
                ];
            })
        an.C.path)
    analyses;
  let node_name n =
    match analyses with
    | ((sw : R.switch), _) :: _ when n < Configuration.node_count sw.source ->
      Node.name (Configuration.node sw.source n)
    | _ -> Fmt.str "N%d" n
  in
  let threads =
    (tid_markers, "switch markers")
    :: (tid_critical, "critical path")
    :: (Hashtbl.fold (fun n () acc -> n :: acc) nodes []
       |> List.sort compare
       |> List.map (fun n -> (tid_node n, node_name n)))
  in
  (List.rev !events, threads)

let write_gantt path analyses =
  let events, threads = gantt_events analyses in
  let oc = open_out path in
  output_string oc (Json.to_string (Trace.export ~threads events));
  output_char oc '\n';
  close_out oc

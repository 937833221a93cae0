(* [e2e.exe compare PARENT CHANGE]: verdicts per (metric, workload) from
   two files of untraced runs written by [--json]. Pair i is the i-th run
   of a workload on each side; collect them alternating which side runs
   first. The rules:
   - worse: the change's median is worse than the parent's by more than
     the metric's BENCHMARK.json bound;
   - better: the change wins at least 9 pairs in 10 (ties count for
     neither) and the medians differ by more than the parent's quartile
     spread;
   - unresolved: fewer than 10 pairs, or the parent's spread is wider
     than the bound and not every change run beats every parent run;
   - unchanged: otherwise.
   A metric that does not apply to a workload ([Catalogue.applies]) is
   shown as n/a and not graded. A higher share of failed operations is
   flagged on its own. *)

module Json = Entropy_obs.Json

type run = {
  workload : string;
  attempted : float;
  failed : float;
  values : (string * float) list;
}

let num key j = Option.value ~default:0. (Option.bind (Json.member key j) Json.number)

let load path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.filter_map (fun l ->
      let j = Json.parse l in
      match Option.bind (Json.member "workload" j) Json.string_value with
      | Some workload when num "trace" j = 0. ->
        let metrics =
          match Json.member "metrics" j with Some (Json.Obj kvs) -> kvs | _ -> []
        in
        Some
          {
            workload;
            attempted = num "attempted" j;
            failed = num "failed" j;
            values = List.map (fun (k, v) -> (k, num "value" v)) metrics;
          }
      | _ -> None)

let verdict ~better ~bound parent change =
  (* [gain p c]: how much better [c] reads than [p] *)
  let gain p c = match better with Catalogue.Lower -> p -. c | Catalogue.Higher -> c -. p in
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs = zip parent change in
  let n = List.length pairs in
  let mp = Stats.median parent and mc = Stats.median change in
  let q1, q3 = Stats.quartiles parent in
  let wins = List.length (List.filter (fun (p, c) -> gain p c > 0.) pairs) in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> gain p c > 0.) parent) change
  in
  if n < 10 then "unresolved (fewer than 10 pairs)"
  else if -.gain mp mc > bound *. Float.abs mp then "worse"
  else if 10 * wins >= 9 * n && gain mp mc > q3 -. q1 then "better"
  else if q3 -. q1 > bound *. Float.abs mp then
    if all_better then "better" else "unresolved (spread wider than bound)"
  else "unchanged"

let main ~spec ~parent ~change =
  let spec = Catalogue.load_spec spec in
  let bounds = Catalogue.bounds spec in
  let parent = load parent and change = load change in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (parent @ change))
  in
  let bad = ref false in
  Printf.printf "%-14s %-14s %30s %30s  %s\n" "workload" "metric" "parent p50 [q1, q3]"
    "change p50 [q1, q3]" "verdict";
  List.iter
    (fun w ->
      let p = List.filter (fun r -> r.workload = w) parent in
      let c = List.filter (fun r -> r.workload = w) change in
      List.iter
        (fun (m : Catalogue.metric) ->
          let vals runs = List.filter_map (fun r -> List.assoc_opt m.Catalogue.name r.values) runs in
          let pv = vals p and cv = vals c in
          let summary v =
            if List.length v < 2 then "-"
            else
              let q1, q3 = Stats.quartiles v in
              Printf.sprintf "%.6g [%.6g, %.6g]" (Stats.median v) q1 q3
          in
          let v =
            match List.assoc_opt m.Catalogue.name bounds with
            | _ when not (Catalogue.applies m.Catalogue.name w) -> "n/a"
            | None -> "no bound in spec"
            | Some _ when List.length pv < 2 || List.length cv < 2 -> "unresolved (no runs)"
            | Some bound -> verdict ~better:m.Catalogue.better ~bound pv cv
          in
          if v = "worse" then bad := true;
          Printf.printf "%-14s %-14s %30s %30s  %s\n" w m.Catalogue.name (summary pv)
            (summary cv) v)
        Catalogue.end_to_end;
      let share runs =
        Stats.ratio (Stats.sum_by (fun r -> r.failed) runs) (Stats.sum_by (fun r -> r.attempted) runs)
      in
      if share c > share p then begin
        bad := true;
        Printf.printf "%-14s failed share up: %.4f -> %.4f\n" w (share p) (share c)
      end)
    workloads;
  if !bad then 1 else 0

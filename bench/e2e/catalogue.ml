(* Every metric e2e.exe emits, with its unit and direction, and the
   check that BENCHMARK.json names exactly these. *)

module Json = Entropy_obs.Json

type better = Lower | Higher
type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "op_ms.p50" "ms" Lower;
    m "op_ms.p90" "ms" Lower;
    m "switch_cost" "cost" Lower;
    m "switch_s" "sim_s" Lower;
    m "makespan_s" "sim_s" Lower;
    m "served_share" "ratio" Higher;
    m "heap_mb" "MB" Lower;
  ]

let per_layer =
  List.map (fun l -> m ("self_ms." ^ l) "ms" Lower) Layers.layers
  @ [
      m "decide.calls" "count" Lower;
      m "decide_ms.p50" "ms" Lower;
      m "decide_ms.p95" "ms" Lower;
      m "cp.nodes" "count" Lower;
      m "cp.fails" "count" Lower;
      m "cp.nodes_per_s" "1/s" Higher;
      m "cp.propagations_per_node" "count" Lower;
      m "planner.calls" "count" Lower;
      m "planner.actions" "count" Lower;
      m "planner.pools" "count" Lower;
      m "place.moves_per_s" "1/s" Higher;
      m "place.accept_ratio" "ratio" Higher;
      m "place.incumbents" "count" Higher;
      m "place.improved_share" "ratio" Higher;
      m "place.winner_share.ffd" "ratio" Lower;
      m "place.winner_share.sa" "ratio" Higher;
      m "place.winner_share.lns" "ratio" Higher;
      m "place.winner_share.cp" "ratio" Higher;
      m "place.overrun_ms" "ms" Lower;
      m "verifier.ms_per_plan" "ms" Lower;
      m "sim.events" "count" Lower;
      m "sim.events_per_s" "1/s" Higher;
      m "daemon.rounds" "count" Lower;
      m "daemon.deferred_share" "ratio" Lower;
      m "daemon.coalesced_share" "ratio" Higher;
      m "repair.calls" "count" Lower;
      m "journal.records" "count" Lower;
      m "journal.bytes" "B" Lower;
      m "journal.bytes_per_switch" "B" Lower;
      m "journal.append_ms" "ms" Lower;
      m "resume.boot_ms" "ms" Lower;
      m "gc.alloc_mb" "MB" Lower;
      m "gc.major" "count" Lower;
      m "obs.overhead_ratio" "ratio" Lower;
      m "op_wall_ms.p50" "ms" Lower;
      m "hostspeed.kernel_ms" "ms" Lower;
    ]

(* The workloads on which an end-to-end metric means something. Every
   run reports every metric; on the other workloads the value cannot
   move or repeats another metric (place-dense has no vjob to complete,
   so its makespan is the plan's duration, as [switch_s]; its served
   share is fixed by the input before the timed call; ngb-cp fails unless
   every vjob completes), and [compare] does not grade it. *)
let applies metric workload =
  match (metric, workload) with
  | "makespan_s", "place-dense" -> false
  | "served_share", ("ngb-cp" | "place-dense") -> false
  | _ -> true

let better_to_string = function Lower -> "lower" | Higher -> "higher"

(* -- BENCHMARK.json -------------------------------------------------------- *)

let load_spec path = Json.parse (In_channel.with_open_bin path In_channel.input_all)

let field name j = Option.bind (Json.member name j) Json.string_value

let entries key spec =
  Option.value ~default:[] (Option.bind (Json.member key spec) Json.to_list)

(* The bound BENCHMARK.json fixes for an end-to-end metric. *)
let bounds spec =
  List.filter_map
    (fun j ->
      match (field "name" j, Option.bind (Json.member "bound" j) Json.number) with
      | Some n, Some b -> Some (n, b)
      | _ -> None)
    (entries "end_to_end" spec)

(* Differences between BENCHMARK.json and what e2e.exe emits, both
   ways: workloads by name, metrics by name, unit and direction. *)
let check_spec ~workloads spec =
  let problems = ref [] in
  let report fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let compare_sets what ~declared ~emitted =
    List.iter
      (fun x -> if not (List.mem x emitted) then report "%s %S is not emitted" what x)
      declared;
    List.iter
      (fun x -> if not (List.mem x declared) then report "%s %S is missing from the spec" what x)
      emitted
  in
  compare_sets "workload"
    ~declared:(List.filter_map (field "name") (entries "workloads" spec))
    ~emitted:workloads;
  let describe (name, unit_, better) = Printf.sprintf "%s [%s, %s]" name unit_ better in
  List.iter
    (fun (key, metrics) ->
      let declared =
        List.map
          (fun j ->
            describe
              ( Option.value ~default:"?" (field "name" j),
                Option.value ~default:"?" (field "unit" j),
                Option.value ~default:"?" (field "better" j) ))
          (entries key spec)
      in
      let emitted =
        List.map (fun m -> describe (m.name, m.unit_, better_to_string m.better)) metrics
      in
      compare_sets (key ^ " metric") ~declared ~emitted)
    [ ("end_to_end", end_to_end); ("per_layer", per_layer) ];
  List.rev !problems

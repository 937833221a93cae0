(* Tests for the workload substrate: phase programs, NGB-like DAG
   families, the trace catalogue and the Figure 10 generator. *)

open Entropy_core
module Program = Vworkload.Program
module Nasgrid = Vworkload.Nasgrid
module Trace = Vworkload.Trace
module Generator = Vworkload.Generator
module Arrivals = Vworkload.Arrivals

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

(* -- program -------------------------------------------------------------- *)

let test_program_demand () =
  check_int "compute" 100 (Program.demand [ Program.Compute 10. ]);
  check_int "idle" 5 (Program.demand [ Program.Idle 10. ]);
  check_int "done" 0 (Program.demand [])

let test_program_totals () =
  let p = [ Program.Compute 10.; Program.Idle 5.; Program.Compute 2.5 ] in
  check_float "compute" 12.5 (Program.total_compute p);
  check_float "min duration" 17.5 (Program.min_duration p)

let test_program_normalize () =
  let p =
    [
      Program.Idle 0.;
      Program.Compute 5.;
      Program.Compute 3.;
      Program.Idle (-1.);
      Program.Idle 2.;
      Program.Idle 4.;
    ]
  in
  match Program.normalize p with
  | [ Program.Compute w; Program.Idle d ] ->
    check_float "merged compute" 8. w;
    check_float "merged idle" 6. d
  | other ->
    Alcotest.failf "unexpected normal form %a" Program.pp other

(* -- nasgrid --------------------------------------------------------------- *)

let test_ed_everyone_computes () =
  let programs = Nasgrid.ed ~vms:9 ~work:60. in
  check_int "9 programs" 9 (List.length programs);
  List.iter
    (fun p ->
      check_float "full work" 60. (Program.total_compute p);
      check_int "starts computing" 100 (Program.demand p))
    programs

let test_hc_single_chain () =
  let vms = 4 in
  let programs = Nasgrid.hc ~rounds:2 ~vms ~work:10. () in
  (* exactly one VM computes at any time: total compute = rounds * vms *
     work and every program's wall span is identical *)
  let total =
    List.fold_left (fun acc p -> acc +. Program.total_compute p) 0. programs
  in
  check_float "chain work" (2. *. 4. *. 10.) total;
  (* VM i's last task ends i tasks after VM 0's: spans step by the task
     work, and the last VM's span is the whole chain *)
  let spans = List.map Program.min_duration programs in
  List.iteri
    (fun i s -> check_float "span steps by work" (List.hd spans +. (10. *. float_of_int i)) s)
    spans;
  check_float "chain span" (2. *. 4. *. 10.)
    (List.fold_left Float.max 0. spans);
  (* VM 0 computes first; VM 3 waits 3 tasks *)
  (match List.hd programs with
  | Program.Compute _ :: _ -> ()
  | p -> Alcotest.failf "vm0 should compute first: %a" Program.pp p);
  match List.nth programs 3 with
  | Program.Idle d :: _ -> check_float "vm3 waits" 30. d
  | p -> Alcotest.failf "vm3 should idle first: %a" Program.pp p

let test_vp_pipeline_stagger () =
  let programs = Nasgrid.vp ~depth:3 ~rounds:2 ~vms:9 ~work:10. () in
  check_int "9 programs" 9 (List.length programs);
  (* stage 0 starts immediately, stage 2 waits 2 stage-times *)
  (match List.hd programs with
  | Program.Compute _ :: _ -> ()
  | p -> Alcotest.failf "stage0 computes first: %a" Program.pp p);
  match List.nth programs 8 with
  | Program.Idle d :: _ -> check_float "stage2 lead-in" 20. d
  | p -> Alcotest.failf "stage2 should idle: %a" Program.pp p

let test_mb_unequal_layers () =
  let programs = Nasgrid.mb ~layers:3 ~vms:9 ~work:10. () in
  let first = List.hd programs and last = List.nth programs 8 in
  check_float "layer0 work" 10. (Program.total_compute first);
  check_float "layer2 works more" 20. (Program.total_compute last)

let test_class_scaling () =
  let w = Nasgrid.task_work Nasgrid.W
  and a = Nasgrid.task_work Nasgrid.A
  and b = Nasgrid.task_work Nasgrid.B in
  check_bool "W < A < B" true (w < a && a < b)

(* -- trace ----------------------------------------------------------------- *)

let test_trace_catalogue_81 () =
  let traces = Trace.catalogue () in
  check_int "81 traces" 81 (List.length traces);
  List.iter
    (fun t ->
      check_int "programs match vms" t.Trace.vm_count
        (List.length t.Trace.programs);
      check_int "memories match vms" t.Trace.vm_count
        (List.length t.Trace.memories);
      List.iter
        (fun m ->
          check_bool "paper memory sizes" true
            (List.mem m Trace.memory_choices))
        t.Trace.memories)
    traces

let test_trace_vm_counts () =
  let traces = Trace.catalogue () in
  check_bool "9 or 18 VMs" true
    (List.for_all
       (fun t -> t.Trace.vm_count = 9 || t.Trace.vm_count = 18)
       traces)

let test_trace_deterministic () =
  let a = Trace.make ~seed:3 ~vm_count:9 Nasgrid.Ed Nasgrid.A in
  let b = Trace.make ~seed:3 ~vm_count:9 Nasgrid.Ed Nasgrid.A in
  check_bool "same memories" true (a.Trace.memories = b.Trace.memories)

(* -- generator -------------------------------------------------------------- *)

let test_generator_reaches_vm_target () =
  let inst =
    Generator.generate { Generator.default_spec with vm_target = 108; seed = 1 }
  in
  let n = Configuration.vm_count inst.Generator.config in
  check_bool "at least target" true (n >= 108);
  check_bool "close to target" true (n <= 108 + 18)

let test_generator_memory_satisfied () =
  (* initial assignment satisfies every VM's memory requirement *)
  let inst =
    Generator.generate { Generator.default_spec with vm_target = 216; seed = 2 }
  in
  let config = inst.Generator.config in
  Array.iter
    (fun node ->
      check_bool "node memory respected" true
        (Configuration.mem_load config (Node.id node) <= Node.memory_mb node))
    (Configuration.nodes config)

let test_generator_deterministic () =
  let a = Generator.generate { Generator.default_spec with vm_target = 54; seed = 7 } in
  let b = Generator.generate { Generator.default_spec with vm_target = 54; seed = 7 } in
  check_bool "equal configs" true
    (Configuration.equal a.Generator.config b.Generator.config)

let test_generator_vjobs_partition_vms () =
  let inst =
    Generator.generate { Generator.default_spec with vm_target = 54; seed = 3 }
  in
  let all = List.concat_map Vjob.vms inst.Generator.vjobs in
  let sorted = List.sort_uniq Int.compare all in
  check_int "every VM in exactly one vjob"
    (Configuration.vm_count inst.Generator.config)
    (List.length sorted);
  check_int "no duplicates" (List.length all) (List.length sorted)

let test_generator_demands_from_programs () =
  let inst =
    Generator.generate { Generator.default_spec with vm_target = 54; seed = 4 }
  in
  let ok = ref true in
  for vm = 0 to Configuration.vm_count inst.Generator.config - 1 do
    let d = Demand.cpu inst.Generator.demand vm in
    if d <> Program.compute_demand && d <> Program.idle_demand && d <> 0 then
      ok := false
  done;
  check_bool "demands are phase demands" true !ok

let prop_generator_all_states_appear =
  QCheck.Test.make ~name:"generator produces running, sleeping and waiting vjobs"
    ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let inst =
        Generator.generate
          { Generator.default_spec with vm_target = 216; seed }
      in
      let states =
        List.filter_map
          (fun vj -> Configuration.vjob_state inst.Generator.config vj)
          inst.Generator.vjobs
      in
      (* with 12+ vjobs the three states virtually always all appear;
         accept when at least two distinct states exist *)
      List.length (List.sort_uniq compare states) >= 2)

(* -- arrivals -------------------------------------------------------------- *)

let test_arrivals_shape () =
  let spec = { Arrivals.default_spec with count = 500; seed = 11 } in
  let arr = Arrivals.generate spec in
  check_int "exactly count arrivals" 500 (List.length arr);
  let sorted = ref true and positive = ref true in
  ignore
    (List.fold_left
       (fun prev a ->
         if a.Arrivals.at_s < prev then sorted := false;
         if a.Arrivals.at_s < 0. then positive := false;
         a.Arrivals.at_s)
       0. arr);
  check_bool "nondecreasing times" true !sorted;
  check_bool "nonnegative times" true !positive

let test_arrivals_deterministic () =
  let spec = { Arrivals.default_spec with count = 300; seed = 42 } in
  check_bool "same seed, same schedule" true
    (Arrivals.generate spec = Arrivals.generate spec);
  check_bool "different seed, different schedule" true
    (Arrivals.times spec <> Arrivals.times { spec with seed = 43 })

let test_arrivals_base_rate () =
  (* with bursts switched off (equal rates) the stream is plain Poisson:
     the empirical rate over many arrivals converges on base_rate *)
  let rate = 0.5 in
  let spec =
    {
      Arrivals.seed = 7;
      count = 4000;
      base_rate = rate;
      burst_rate = rate;
      mean_calm_s = 100.;
      mean_burst_s = 100.;
    }
  in
  let times = Arrivals.times spec in
  let span = List.nth times (List.length times - 1) in
  let empirical = float_of_int (List.length times) /. span in
  check_bool
    (Printf.sprintf "empirical rate %.3f within 10%% of %.3f" empirical rate)
    true
    (Float.abs (empirical -. rate) < 0.1 *. rate)

let test_arrivals_bursty () =
  (* bursts must be real: the local rate inside burst periods clearly
     exceeds the calm rate, and both kinds of arrival occur *)
  let spec =
    {
      Arrivals.seed = 3;
      count = 2000;
      base_rate = 1. /. 60.;
      burst_rate = 1. /. 4.;
      mean_calm_s = 600.;
      mean_burst_s = 120.;
    }
  in
  let arr = Arrivals.generate spec in
  let gaps_between same =
    (* mean gap between consecutive arrivals in the same phase kind *)
    let rec go prev acc n = function
      | [] -> (acc, n)
      | a :: rest ->
        if a.Arrivals.burst = same then
          match prev with
          | Some p ->
            go (Some a) (acc +. (a.Arrivals.at_s -. p.Arrivals.at_s)) (n + 1)
              rest
          | None -> go (Some a) acc n rest
        else go None acc n rest
      in
    let total, n = go None 0. 0 arr in
    if n = 0 then infinity else total /. float_of_int n
  in
  let burst_gap = gaps_between true and calm_gap = gaps_between false in
  check_bool "both phases produce arrivals" true
    (List.exists (fun a -> a.Arrivals.burst) arr
    && List.exists (fun a -> not a.Arrivals.burst) arr);
  check_bool
    (Printf.sprintf "burst gap %.1fs well below calm gap %.1fs" burst_gap
       calm_gap)
    true
    (burst_gap *. 4. < calm_gap)

let test_arrivals_rejects_bad_spec () =
  let bad f =
    match Arrivals.generate f with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "negative count" true
    (bad { Arrivals.default_spec with count = -1 });
  check_bool "zero rate" true
    (bad { Arrivals.default_spec with base_rate = 0. });
  check_bool "zero phase duration" true
    (bad { Arrivals.default_spec with mean_burst_s = 0. })

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "vworkload"
    [
      ( "program",
        [
          Alcotest.test_case "demand" `Quick test_program_demand;
          Alcotest.test_case "totals" `Quick test_program_totals;
          Alcotest.test_case "normalize" `Quick test_program_normalize;
        ] );
      ( "nasgrid",
        [
          Alcotest.test_case "ED computes everywhere" `Quick
            test_ed_everyone_computes;
          Alcotest.test_case "HC single chain" `Quick test_hc_single_chain;
          Alcotest.test_case "VP pipeline stagger" `Quick
            test_vp_pipeline_stagger;
          Alcotest.test_case "MB unequal layers" `Quick
            test_mb_unequal_layers;
          Alcotest.test_case "class scaling" `Quick test_class_scaling;
        ] );
      ( "trace",
        [
          Alcotest.test_case "catalogue has 81" `Quick test_trace_catalogue_81;
          Alcotest.test_case "vm counts" `Quick test_trace_vm_counts;
          Alcotest.test_case "deterministic" `Quick test_trace_deterministic;
        ] );
      ( "generator",
        [
          Alcotest.test_case "vm target" `Quick
            test_generator_reaches_vm_target;
          Alcotest.test_case "memory satisfied" `Quick
            test_generator_memory_satisfied;
          Alcotest.test_case "deterministic" `Quick
            test_generator_deterministic;
          Alcotest.test_case "vjobs partition VMs" `Quick
            test_generator_vjobs_partition_vms;
          Alcotest.test_case "demands from programs" `Quick
            test_generator_demands_from_programs;
        ]
        @ qsuite [ prop_generator_all_states_appear ] );
      ( "arrivals",
        [
          Alcotest.test_case "shape" `Quick test_arrivals_shape;
          Alcotest.test_case "deterministic" `Quick
            test_arrivals_deterministic;
          Alcotest.test_case "base rate" `Quick test_arrivals_base_rate;
          Alcotest.test_case "bursty" `Quick test_arrivals_bursty;
          Alcotest.test_case "bad spec rejected" `Quick
            test_arrivals_rejects_bad_spec;
        ] );
    ]

(* Tests for the entropyctl cluster-description language. *)

open Entropy_core
module Program = Vworkload.Program
module Spec = Entropy_cli.Spec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -- spec --------------------------------------------------------------------- *)

let demo_spec =
  "# demo\n\
   node N0 cpu=2.0 mem=3584\n\
   node N1 cpu=1.5 mem=2048\n\
   vm web mem=512 demand=10 state=running@N0\n\
   vm db mem=2048 demand=100 state=sleeping@N1\n\
   vm loose mem=256\n\
   vjob site vms=web,db priority=0\n\
   rule spread web,db\n\
   rule ban web nodes=N1\n"

let test_spec_parses () =
  let spec = Spec.of_string demo_spec in
  check_int "nodes" 2 (Configuration.node_count spec.Spec.config);
  check_int "vms" 3 (Configuration.vm_count spec.Spec.config);
  check_int "cpu scaled" 150
    (Node.cpu_capacity (Configuration.node spec.Spec.config 1));
  check_bool "web running" true
    (Configuration.state spec.Spec.config 0 = Configuration.Running 0);
  check_bool "db sleeping" true
    (Configuration.state spec.Spec.config 1 = Configuration.Sleeping 1);
  check_int "web demand" 10 (Demand.cpu spec.Spec.demand 0);
  check_int "rules" 2 (List.length spec.Spec.rules)

let test_spec_implicit_vjob () =
  let spec = Spec.of_string demo_spec in
  (* "loose" gets an implicit singleton vjob *)
  check_int "two vjobs" 2 (List.length spec.Spec.vjobs);
  let implicit =
    List.find (fun v -> Vjob.name v = "loose") spec.Spec.vjobs
  in
  check_bool "singleton" true (Vjob.vms implicit = [ 2 ])

let test_spec_sleeping_ram_state () =
  let spec =
    Spec.of_string
      "node N0 cpu=2 mem=4096\nvm a mem=1024 state=sleeping-ram@N0\n"
  in
  check_bool "ram state" true
    (Configuration.state spec.Spec.config 0 = Configuration.Sleeping_ram 0);
  check_int "ram memory held" 1024
    (Configuration.mem_load spec.Spec.config 0)

let test_spec_programs () =
  let spec =
    Spec.of_string
      "node N0 cpu=2 mem=4096\n\
       vm a mem=512 program=C60,I30\n\
       vm b mem=512\n"
  in
  (match spec.Spec.programs.(0) with
  | [ Program.Compute 60.; Program.Idle 30. ] -> ()
  | p -> Alcotest.failf "unexpected program %a" Program.pp p);
  check_bool "no program = empty" true (spec.Spec.programs.(1) = []);
  check_bool "bad program rejected" true
    (try
       ignore
         (Spec.of_string "node N0 cpu=2 mem=4096\nvm a mem=512 program=X1\n");
       false
     with Spec.Parse_error _ -> true)

let test_program_of_string () =
  (match Program.of_string "C60,I30.5,c2" with
  | Ok [ Program.Compute 60.; Program.Idle 30.5; Program.Compute 2. ] -> ()
  | Ok p -> Alcotest.failf "unexpected %a" Program.pp p
  | Error e -> Alcotest.fail e);
  check_bool "empty ok" true (Program.of_string "" = Ok []);
  check_bool "junk rejected" true
    (match Program.of_string "Z9" with Error _ -> true | Ok _ -> false);
  check_bool "negative rejected" true
    (match Program.of_string "C-5" with Error _ -> true | Ok _ -> false)

let test_spec_quota_rule () =
  let spec =
    Spec.of_string
      "node N0 cpu=2 mem=4096\n\
       node N1 cpu=2 mem=4096\n\
       vm a mem=512\n\
       rule quota - nodes=N0 max=1\n"
  in
  (match spec.Spec.rules with
  | [ Placement_rules.Quota ([ 0 ], 1) ] -> ()
  | _ -> Alcotest.fail "expected a quota rule");
  check_bool "quota without max rejected" true
    (try
       ignore
         (Spec.of_string
            "node N0 cpu=2 mem=4096\nvm a mem=512\nrule quota - nodes=N0\n");
       false
     with Spec.Parse_error _ -> true)

let test_spec_errors () =
  let expect text =
    check_bool "rejected" true
      (try
         ignore (Spec.of_string text);
         false
       with Spec.Parse_error _ -> true)
  in
  expect "vm a mem=512\n" (* no node *);
  expect "node N0 cpu=2 mem=1024\n" (* no vm *);
  expect "node N0 cpu=2 mem=1024\nvm a mem=512 state=running@NX\n";
  expect "node N0 cpu=2 mem=1024\nvm a mem=512\nvm a mem=512\n";
  expect
    "node N0 cpu=2 mem=1024\nvm a mem=512\nvjob j vms=a\nvjob k vms=a\n";
  expect "node N0 cpu=2 mem=1024\nvm a mem=512\nrule ban a\n";
  expect "node N0 cpu=2 mem=1024\nvm a mem=512\nrule warp a\n"

let test_spec_plan_roundtrip () =
  (* the spec's configuration can be decided upon and the plan applies *)
  let spec = Spec.of_string demo_spec in
  let decision = Decision.consolidation ~cp_timeout:0.3 ~rules:spec.Spec.rules () in
  let obs =
    {
      Decision.config = spec.Spec.config;
      demand = spec.Spec.demand;
      queue = spec.Spec.vjobs;
      finished = [];
    }
  in
  let result = decision.Decision.decide obs in
  check_bool "viable" true
    (Configuration.is_viable result.Optimizer.target spec.Spec.demand);
  check_bool "rules hold" true
    (Placement_rules.check_all result.Optimizer.target spec.Spec.rules)

let () =
  Alcotest.run "io"
    [
      ( "spec",
        [
          Alcotest.test_case "parses" `Quick test_spec_parses;
          Alcotest.test_case "implicit vjob" `Quick test_spec_implicit_vjob;
          Alcotest.test_case "sleeping-ram" `Quick test_spec_sleeping_ram_state;
          Alcotest.test_case "programs" `Quick test_spec_programs;
          Alcotest.test_case "program of_string" `Quick test_program_of_string;
          Alcotest.test_case "quota rule" `Quick test_spec_quota_rule;
          Alcotest.test_case "errors" `Quick test_spec_errors;
          Alcotest.test_case "plan roundtrip" `Quick test_spec_plan_roundtrip;
        ] );
    ]

(* A small cluster-description language for the entropyctl tool, so a
   configuration can be written by hand, checked and planned against:

     # nodes: cpu in cores, memory in MB
     node N0 cpu=2.0 mem=3584
     node N1 cpu=2.0 mem=3584

     # vms: demand in hundredths of a core; states:
     #   waiting | running@<node> | sleeping@<node> |
     #   sleeping-ram@<node> | terminated
     # the optional program (C<cpu-s> / I<wall-s> phases) feeds
     # `entropyctl simulate`
     vm web mem=512  demand=10  state=running@N0 program=C600
     vm db  mem=2048 demand=100 state=waiting    program=I30,C300

     # vjobs group vms; FCFS order follows priority then declaration
     vjob site vms=web,db priority=0

     # placement rules
     rule spread web,db
     rule ban    web nodes=N1
     rule fence  db  nodes=N0,N1
     rule gather web,db
     rule quota  -   nodes=N0 max=2
*)

open Entropy_core

exception Parse_error of { line : int; message : string }

let parse_error line fmt =
  Fmt.kstr (fun message -> raise (Parse_error { line; message })) fmt

type t = {
  config : Configuration.t;
  demand : Demand.t;
  vjobs : Vjob.t list;
  rules : Placement_rules.t list;
  programs : Vworkload.Program.t array;  (* [] when not declared *)
  node_names : string array;
  vm_names : string array;
}

(* -- raw declarations -------------------------------------------------------- *)

type raw_state =
  | R_waiting
  | R_running of string
  | R_sleeping of string
  | R_sleeping_ram of string
  | R_terminated

type raw = {
  mutable nodes : (int * string * int * int) list; (* line, name, cpu, mem *)
  mutable vms :
    (int * string * int * int * raw_state * Vworkload.Program.t) list;
  mutable vjobs : (int * string * string list * int) list;
  mutable rules :
    (int * string * string list * string list * (string * string) list) list;
      (* line, kind, vms, nodes, remaining key=value fields *)
}

let fields lineno tokens =
  List.map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i ->
        (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
      | None -> parse_error lineno "expected key=value, got %S" tok)
    tokens

let field lineno kvs key =
  match List.assoc_opt key kvs with
  | Some v -> v
  | None -> parse_error lineno "missing field %S" key

let field_opt kvs key = List.assoc_opt key kvs

let int_field lineno kvs key =
  match int_of_string_opt (field lineno kvs key) with
  | Some v -> v
  | None -> parse_error lineno "field %S is not an integer" key

let comma_list s = String.split_on_char ',' s |> List.filter (( <> ) "")

let parse_state lineno s =
  match String.index_opt s '@' with
  | None -> (
    match s with
    | "waiting" -> R_waiting
    | "terminated" -> R_terminated
    | _ -> parse_error lineno "unknown state %S" s)
  | Some i -> (
    let kind = String.sub s 0 i in
    let node = String.sub s (i + 1) (String.length s - i - 1) in
    match kind with
    | "running" -> R_running node
    | "sleeping" -> R_sleeping node
    | "sleeping-ram" -> R_sleeping_ram node
    | _ -> parse_error lineno "unknown state %S" kind)

let parse_raw text =
  let raw = { nodes = []; vms = []; vjobs = []; rules = [] } in
  List.iteri
    (fun i line_raw ->
      let lineno = i + 1 in
      let line = String.trim line_raw in
      if line = "" || line.[0] = '#' then ()
      else
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | "node" :: name :: rest ->
          let kvs = fields lineno rest in
          let cpu =
            match float_of_string_opt (field lineno kvs "cpu") with
            | Some c when c > 0. -> int_of_float (Float.round (c *. 100.))
            | Some _ | None -> parse_error lineno "bad cpu (cores expected)"
          in
          let mem = int_field lineno kvs "mem" in
          raw.nodes <- (lineno, name, cpu, mem) :: raw.nodes
        | "vm" :: name :: rest ->
          let kvs = fields lineno rest in
          let mem = int_field lineno kvs "mem" in
          let demand =
            match field_opt kvs "demand" with
            | Some d -> (
              match int_of_string_opt d with
              | Some v when v >= 0 -> v
              | Some _ | None -> parse_error lineno "bad demand")
            | None -> 0
          in
          let state =
            match field_opt kvs "state" with
            | Some s -> parse_state lineno s
            | None -> R_waiting
          in
          let program =
            match field_opt kvs "program" with
            | None -> []
            | Some s -> (
              match Vworkload.Program.of_string s with
              | Ok p -> p
              | Error message -> parse_error lineno "%s" message)
          in
          raw.vms <- (lineno, name, mem, demand, state, program) :: raw.vms
        | "vjob" :: name :: rest ->
          let kvs = fields lineno rest in
          let vms = comma_list (field lineno kvs "vms") in
          if vms = [] then parse_error lineno "vjob %S has no vms" name;
          let priority =
            match field_opt kvs "priority" with
            | Some p -> (
              match int_of_string_opt p with
              | Some v -> v
              | None -> parse_error lineno "bad priority")
            | None -> 0
          in
          raw.vjobs <- (lineno, name, vms, priority) :: raw.vjobs
        | "rule" :: kind :: rest ->
          let vms, kvs =
            match rest with
            | vms :: rest -> (comma_list vms, fields lineno rest)
            | [] -> parse_error lineno "rule without VM list"
          in
          let nodes =
            match field_opt kvs "nodes" with
            | Some s -> comma_list s
            | None -> []
          in
          raw.rules <- (lineno, kind, vms, nodes, kvs) :: raw.rules
        | keyword :: _ -> parse_error lineno "unknown keyword %S" keyword
        | [] -> ())
    (String.split_on_char '\n' text);
  raw

(* -- elaboration --------------------------------------------------------------- *)

let index_of lineno kind names name =
  let rec go i = function
    | [] -> parse_error lineno "unknown %s %S" kind name
    | n :: rest -> if n = name then i else go (i + 1) rest
  in
  go 0 names

let of_string text =
  let raw = parse_raw text in
  let nodes_decl = List.rev raw.nodes in
  let vms_decl = List.rev raw.vms in
  let vjobs_decl = List.rev raw.vjobs in
  let rules_decl = List.rev raw.rules in
  if nodes_decl = [] then parse_error 1 "no node declared";
  if vms_decl = [] then parse_error 1 "no vm declared";
  let node_names = List.map (fun (_, n, _, _) -> n) nodes_decl in
  let vm_names = List.map (fun (_, n, _, _, _, _) -> n) vms_decl in
  let dup names kind =
    let sorted = List.sort String.compare names in
    let rec go = function
      | a :: (b :: _ as rest) ->
        if a = b then parse_error 1 "duplicate %s %S" kind a else go rest
      | _ -> ()
    in
    go sorted
  in
  dup node_names "node";
  dup vm_names "vm";
  let nodes =
    Array.of_list
      (List.mapi
         (fun i (_, name, cpu, mem) ->
           Node.make ~id:i ~name ~cpu_capacity:cpu ~memory_mb:mem)
         nodes_decl)
  in
  let vms =
    Array.of_list
      (List.mapi
         (fun i (_, name, mem, _, _, _) -> Vm.make ~id:i ~name ~memory_mb:mem)
         vms_decl)
  in
  let programs =
    Array.of_list (List.map (fun (_, _, _, _, _, p) -> p) vms_decl)
  in
  let config = ref (Configuration.make ~nodes ~vms) in
  let demand =
    let decl = Array.of_list vms_decl in
    Demand.of_fn ~vm_count:(Array.length vms) (fun i ->
        let _, _, _, d, _, _ = decl.(i) in
        d)
  in
  List.iteri
    (fun i (lineno, _, _, _, state, _) ->
      let node_id name = index_of lineno "node" node_names name in
      let st =
        match state with
        | R_waiting -> Configuration.Waiting
        | R_running n -> Configuration.Running (node_id n)
        | R_sleeping n -> Configuration.Sleeping (node_id n)
        | R_sleeping_ram n -> Configuration.Sleeping_ram (node_id n)
        | R_terminated -> Configuration.Terminated
      in
      config := Configuration.set_state !config i st)
    vms_decl;
  let vm_id lineno name = index_of lineno "vm" vm_names name in
  let vjobs =
    List.mapi
      (fun i (lineno, name, members, priority) ->
        Vjob.make ~id:i ~name
          ~vms:(List.map (vm_id lineno) members)
          ~priority ~submit_time:(float_of_int i) ())
      vjobs_decl
  in
  (* every VM must belong to exactly one vjob; VMs not mentioned get a
     singleton vjob *)
  let covered = Hashtbl.create 16 in
  List.iter
    (fun vj ->
      List.iter
        (fun vm ->
          if Hashtbl.mem covered vm then
            parse_error 1 "vm %S appears in two vjobs"
              (List.nth vm_names vm);
          Hashtbl.replace covered vm ())
        (Vjob.vms vj))
    vjobs;
  let next_id = ref (List.length vjobs) in
  let implicit =
    List.filteri (fun i _ -> not (Hashtbl.mem covered i)) vm_names
    |> List.map (fun name ->
           let id = !next_id in
           incr next_id;
           Vjob.make ~id ~name
             ~vms:[ index_of 1 "vm" vm_names name ]
             ~submit_time:(float_of_int id) ())
  in
  let rules =
    List.map
      (fun (lineno, kind, members, nodes, kvs_of_rule) ->
        let vms =
          List.map (vm_id lineno)
            (List.filter (( <> ) "-") members)
        in
        let node_ids =
          List.map (fun n -> index_of lineno "node" node_names n) nodes
        in
        match kind with
        | "spread" -> Placement_rules.Spread vms
        | "gather" -> Placement_rules.Gather vms
        | "ban" ->
          if node_ids = [] then parse_error lineno "ban needs nodes=";
          Placement_rules.Ban (vms, node_ids)
        | "fence" ->
          if node_ids = [] then parse_error lineno "fence needs nodes=";
          Placement_rules.Fence (vms, node_ids)
        | "quota" ->
          if node_ids = [] then parse_error lineno "quota needs nodes=";
          let max =
            match List.assoc_opt "max" kvs_of_rule with
            | Some v -> (
              match int_of_string_opt v with
              | Some k when k >= 0 -> k
              | Some _ | None -> parse_error lineno "bad quota max")
            | None -> parse_error lineno "quota needs max="
          in
          Placement_rules.Quota (node_ids, max)
        | _ -> parse_error lineno "unknown rule kind %S" kind)
      rules_decl
  in
  {
    config = !config;
    demand;
    vjobs = vjobs @ implicit;
    rules;
    programs;
    node_names = Array.of_list node_names;
    vm_names = Array.of_list vm_names;
  }

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string (really_input_string ic n))

(* -- pretty views ---------------------------------------------------------------- *)

let vm_name t id = t.vm_names.(id)
let node_name t id = t.node_names.(id)

let pp_action t ppf = function
  | Action.Run { vm; dst } ->
    Fmt.pf ppf "run %s on %s" (vm_name t vm) (node_name t dst)
  | Action.Stop { vm; _ } -> Fmt.pf ppf "stop %s" (vm_name t vm)
  | Action.Migrate { vm; src; dst } ->
    Fmt.pf ppf "migrate %s: %s -> %s" (vm_name t vm) (node_name t src)
      (node_name t dst)
  | Action.Suspend { vm; host } ->
    Fmt.pf ppf "suspend %s on %s" (vm_name t vm) (node_name t host)
  | Action.Resume { vm; src; dst } ->
    if src = dst then
      Fmt.pf ppf "resume %s locally on %s" (vm_name t vm) (node_name t dst)
    else
      Fmt.pf ppf "resume %s: %s -> %s" (vm_name t vm) (node_name t src)
        (node_name t dst)
  | Action.Suspend_ram { vm; host } ->
    Fmt.pf ppf "suspend %s to RAM on %s" (vm_name t vm) (node_name t host)
  | Action.Resume_ram { vm; host } ->
    Fmt.pf ppf "resume %s from RAM on %s" (vm_name t vm) (node_name t host)

let pp_plan t ppf plan =
  List.iteri
    (fun i pool ->
      Fmt.pf ppf "step %d:@." (i + 1);
      List.iter (fun a -> Fmt.pf ppf "  %a@." (pp_action t) a) pool)
    (Plan.pools plan)

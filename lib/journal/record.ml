(* Journal records and their durable forms.

   The durable form is a length-prefixed binary frame: an 11-byte
   header (magic "EJ", a format version byte, the payload length and an
   FNV-1a checksum of the payload, both little-endian u32) followed by a
   compact binary payload. The checksum turns a torn write (the
   controller died mid-append) or a flipped byte into a detectable
   corruption instead of a silently wrong replay; [Journal] treats the
   first bad frame as the end of the durable prefix.

   [to_json] is a one-way debug export (`entropyctl journal dump`);
   nothing decodes it.

   A journal is self-contained, a frame is not. A stream codec
   ([codec]) carries the source and the demand of the last
   [Switch_begin] a stream wrote; a later [Switch_begin] refers to its
   node and VM tables with one byte when they have not changed, and
   writes its source and its demand as what differs from the codec's,
   its target as what differs from its source. A switch record costs
   what the switch changed. Recovery still needs no cluster
   description, only the stream from its first frame. *)

open Entropy_core
module Json = Entropy_obs.Json

type t =
  | Switch_begin of {
      switch : int;
      at_s : float;
      source : Configuration.t;
      target : Configuration.t;
      plan : Plan.t;
      demand : Demand.t;
      seed : int option;
    }
  | Action_started of {
      switch : int;
      pool : int;
      attempt : int;
      at_s : float;
      action : Action.t;
    }
  | Action_done of { switch : int; pool : int; at_s : float; action : Action.t }
  | Action_failed of {
      switch : int;
      pool : int;
      at_s : float;
      action : Action.t;
    }
  | Pool_committed of { switch : int; pool : int; at_s : float }
  | Switch_end of { switch : int; at_s : float; aborted : bool }
  | Submission of {
      at_s : float;
      vjob : int;
      vms : int;
      disposition : disposition;
    }
  | Ladder of { at_s : float; from_level : int; to_level : int; reason : string }

and disposition = Queued | Admitted | Rejected of string

exception Corrupt of string

let corrupt fmt = Fmt.kstr (fun s -> raise (Corrupt s)) fmt

(* daemon-level records (submissions, ladder transitions) live outside
   any switch; they answer -1 so [Journal.next_switch] ignores them *)
let switch = function
  | Switch_begin { switch; _ }
  | Action_started { switch; _ }
  | Action_done { switch; _ }
  | Action_failed { switch; _ }
  | Pool_committed { switch; _ }
  | Switch_end { switch; _ } -> switch
  | Submission _ | Ladder _ -> -1

let at_s = function
  | Switch_begin { at_s; _ }
  | Action_started { at_s; _ }
  | Action_done { at_s; _ }
  | Action_failed { at_s; _ }
  | Pool_committed { at_s; _ }
  | Switch_end { at_s; _ }
  | Submission { at_s; _ }
  | Ladder { at_s; _ } -> at_s

(* The submission payload carries its own version byte so later PRs can
   append fields without burning a new record tag; readers reject
   versions they do not know instead of misparsing. *)
let submission_version = 1
let ladder_version = 1

(* -- encoding ---------------------------------------------------------------- *)

let action_to_json a =
  let open Json in
  match a with
  | Action.Run { vm; dst } -> Obj [ ("k", String "run"); ("vm", Int vm); ("dst", Int dst) ]
  | Action.Stop { vm; host } ->
    Obj [ ("k", String "stop"); ("vm", Int vm); ("host", Int host) ]
  | Action.Migrate { vm; src; dst } ->
    Obj [ ("k", String "migrate"); ("vm", Int vm); ("src", Int src); ("dst", Int dst) ]
  | Action.Suspend { vm; host } ->
    Obj [ ("k", String "suspend"); ("vm", Int vm); ("host", Int host) ]
  | Action.Resume { vm; src; dst } ->
    Obj [ ("k", String "resume"); ("vm", Int vm); ("src", Int src); ("dst", Int dst) ]
  | Action.Suspend_ram { vm; host } ->
    Obj [ ("k", String "suspend-ram"); ("vm", Int vm); ("host", Int host) ]
  | Action.Resume_ram { vm; host } ->
    Obj [ ("k", String "resume-ram"); ("vm", Int vm); ("host", Int host) ]

let state_to_json s =
  let open Json in
  match s with
  | Configuration.Waiting -> String "waiting"
  | Configuration.Terminated -> String "terminated"
  | Configuration.Running n -> Obj [ ("s", String "running"); ("n", Int n) ]
  | Configuration.Sleeping n -> Obj [ ("s", String "sleeping"); ("n", Int n) ]
  | Configuration.Sleeping_ram n ->
    Obj [ ("s", String "sleeping-ram"); ("n", Int n) ]

let config_to_json c =
  let open Json in
  let nodes =
    Array.to_list (Configuration.nodes c)
    |> List.map (fun n ->
           Obj
             [
               ("name", String (Node.name n));
               ("cpu", Int (Node.cpu_capacity n));
               ("mem", Int (Node.memory_mb n));
             ])
  in
  let vms =
    Array.to_list (Configuration.vms c)
    |> List.map (fun vm ->
           Obj
             [
               ("name", String (Vm.name vm)); ("mem", Int (Vm.memory_mb vm));
             ])
  in
  let states =
    List.init (Configuration.vm_count c) (fun vm ->
        state_to_json (Configuration.state c vm))
  in
  Obj [ ("nodes", List nodes); ("vms", List vms); ("states", List states) ]

let plan_to_json plan =
  Json.List
    (List.map
       (fun pool -> Json.List (List.map action_to_json pool))
       (Plan.pools plan))

let demand_to_json d =
  Json.List
    (List.init (Demand.vm_count d) (fun vm -> Json.Int (Demand.cpu d vm)))

let to_json r =
  let open Json in
  match r with
  | Switch_begin { switch; at_s; source; target; plan; demand; seed } ->
    Obj
      ([
         ("t", String "begin");
         ("sw", Int switch);
         ("at", Float at_s);
         ("source", config_to_json source);
         ("target", config_to_json target);
         ("plan", plan_to_json plan);
         ("demand", demand_to_json demand);
       ]
      @ match seed with None -> [] | Some s -> [ ("seed", Int s) ])
  | Action_started { switch; pool; attempt; at_s; action } ->
    Obj
      [
        ("t", String "start");
        ("sw", Int switch);
        ("pool", Int pool);
        ("n", Int attempt);
        ("at", Float at_s);
        ("a", action_to_json action);
      ]
  | Action_done { switch; pool; at_s; action } ->
    Obj
      [
        ("t", String "done");
        ("sw", Int switch);
        ("pool", Int pool);
        ("at", Float at_s);
        ("a", action_to_json action);
      ]
  | Action_failed { switch; pool; at_s; action } ->
    Obj
      [
        ("t", String "failed");
        ("sw", Int switch);
        ("pool", Int pool);
        ("at", Float at_s);
        ("a", action_to_json action);
      ]
  | Pool_committed { switch; pool; at_s } ->
    Obj
      [
        ("t", String "pool");
        ("sw", Int switch);
        ("pool", Int pool);
        ("at", Float at_s);
      ]
  | Switch_end { switch; at_s; aborted } ->
    Obj
      [
        ("t", String "end");
        ("sw", Int switch);
        ("at", Float at_s);
        ("aborted", Bool aborted);
      ]
  | Submission { at_s; vjob; vms; disposition } ->
    Obj
      [
        ("t", String "submission");
        ("v", Int submission_version);
        ("at", Float at_s);
        ("vj", Int vjob);
        ("vms", Int vms);
        ( "d",
          match disposition with
          | Queued -> String "queued"
          | Admitted -> String "admitted"
          | Rejected reason -> Obj [ ("r", String reason) ] );
      ]
  | Ladder { at_s; from_level; to_level; reason } ->
    Obj
      [
        ("t", String "ladder");
        ("v", Int ladder_version);
        ("at", Float at_s);
        ("from", Int from_level);
        ("to", Int to_level);
        ("reason", String reason);
      ]

(* -- checksum ------------------------------------------------------------------ *)

let checksum_sub s ~pos ~len =
  let h = ref 0x811c9dc5 in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193 land 0xffffffff
  done;
  !h

let checksum s = checksum_sub s ~pos:0 ~len:(String.length s)

(* -- binary frame form -------------------------------------------------------- *)

(* Frame layout (all multi-byte integers little-endian):

     0  2   magic "EJ"
     2  1   format version (currently 3)
     3  4   payload length (u32)
     7  4   FNV-1a checksum of the payload (u32)
    11  n   payload

   The payload is a record tag byte followed by the record's fields:
   varints (unsigned LEB128) for integers, 8-byte IEEE doubles for
   times, length-prefixed bytes for names. A frame is rejected — ending
   the journal's durable prefix — when the header is short or
   unrecognized, the payload is short, the checksum mismatches, the
   payload decoder fails (a reference to an earlier table or demand
   with none in the stream, or a diff naming a VM out of range, among
   them), or the payload has trailing bytes.

   A [Switch_begin] payload, after its switch id and time, where a diff
   is count + (vm, value)* in ascending VM order:

     source node table   0 = the codec's, or 1 + count + (name, cpu, mem)*
     source VM table     0 = the codec's, followed by the source states
                         as a diff against the codec's source; or
                         1 + count + (name, mem)* + one state per VM
     target              0 + a state diff against the source, when the
                         target's tables equal the source's; else 1 +
                         the full node table, VM table and states
     plan                count + (count + action* )* (pools)
     demand              0 + a diff against the codec's demand, when
                         the VM counts match; else 1 + count + cpu*
     seed                0, or 1 + the seed

   The codec moves to the frame's source and demand past a whole frame
   only, on both sides, so each diff rests on what the reader rebuilt
   from the frames before it. *)

let magic = "EJ"
let version = 3
let header_size = 11

(* Top-level recursions, so a call allocates no closure: the codec
   writes and reads several varints per VM of every table. *)
let rec add_varint b v =
  (* negative values take the full-width form through [lsr] and
     round-trip exactly on 64-bit; everything we journal is >= 0 *)
  if v land lnot 0x7f = 0 then Buffer.add_char b (Char.unsafe_chr v)
  else begin
    Buffer.add_char b (Char.unsafe_chr (v land 0x7f lor 0x80));
    add_varint b (v lsr 7)
  end

let add_float b f =
  let bits = Int64.bits_of_float f in
  for i = 0 to 7 do
    Buffer.add_char b
      (Char.unsafe_chr
         (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff))
  done

let add_string b s =
  add_varint b (String.length s);
  Buffer.add_string b s

type reader = { src : string; limit : int; mutable pos : int }

let read_byte r =
  if r.pos >= r.limit then corrupt "binary payload: truncated";
  let c = Char.code (String.unsafe_get r.src r.pos) in
  r.pos <- r.pos + 1;
  c

let rec read_varint_from r shift acc =
  if shift > 56 then corrupt "binary payload: varint too long";
  let c = read_byte r in
  let acc = acc lor ((c land 0x7f) lsl shift) in
  if c land 0x80 = 0 then acc else read_varint_from r (shift + 7) acc

let read_varint r = read_varint_from r 0 0

(* A count of entries that take at least a byte each: one past the
   payload's end (or negative) is damage, refused before anything is
   allocated. *)
let read_count r =
  let n = read_varint r in
  if n < 0 || n > r.limit - r.pos then corrupt "binary payload: truncated";
  n

let read_float r =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits :=
      Int64.logor !bits (Int64.shift_left (Int64.of_int (read_byte r)) (8 * i))
  done;
  Int64.float_of_bits !bits

let read_string r =
  let n = read_varint r in
  if n < 0 || n > r.limit - r.pos then corrupt "binary payload: truncated string";
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

(* actions: tag byte + operand varints *)

let add_action b a =
  let tag t = Buffer.add_char b (Char.unsafe_chr t) in
  match a with
  | Action.Run { vm; dst } ->
    tag 1;
    add_varint b vm;
    add_varint b dst
  | Action.Stop { vm; host } ->
    tag 2;
    add_varint b vm;
    add_varint b host
  | Action.Migrate { vm; src; dst } ->
    tag 3;
    add_varint b vm;
    add_varint b src;
    add_varint b dst
  | Action.Suspend { vm; host } ->
    tag 4;
    add_varint b vm;
    add_varint b host
  | Action.Resume { vm; src; dst } ->
    tag 5;
    add_varint b vm;
    add_varint b src;
    add_varint b dst
  | Action.Suspend_ram { vm; host } ->
    tag 6;
    add_varint b vm;
    add_varint b host
  | Action.Resume_ram { vm; host } ->
    tag 7;
    add_varint b vm;
    add_varint b host

let read_action r =
  match read_byte r with
  | 1 ->
    let vm = read_varint r in
    Action.Run { vm; dst = read_varint r }
  | 2 ->
    let vm = read_varint r in
    Action.Stop { vm; host = read_varint r }
  | 3 ->
    let vm = read_varint r in
    let src = read_varint r in
    Action.Migrate { vm; src; dst = read_varint r }
  | 4 ->
    let vm = read_varint r in
    Action.Suspend { vm; host = read_varint r }
  | 5 ->
    let vm = read_varint r in
    let src = read_varint r in
    Action.Resume { vm; src; dst = read_varint r }
  | 6 ->
    let vm = read_varint r in
    Action.Suspend_ram { vm; host = read_varint r }
  | 7 ->
    let vm = read_varint r in
    Action.Resume_ram { vm; host = read_varint r }
  | t -> corrupt "unknown binary action tag %d" t

let add_state b s =
  let tag t = Buffer.add_char b (Char.unsafe_chr t) in
  match s with
  | Configuration.Waiting -> tag 0
  | Configuration.Terminated -> tag 1
  | Configuration.Running n ->
    tag 2;
    add_varint b n
  | Configuration.Sleeping n ->
    tag 3;
    add_varint b n
  | Configuration.Sleeping_ram n ->
    tag 4;
    add_varint b n

let read_state r =
  match read_byte r with
  | 0 -> Configuration.Waiting
  | 1 -> Configuration.Terminated
  | 2 -> Configuration.Running (read_varint r)
  | 3 -> Configuration.Sleeping (read_varint r)
  | 4 -> Configuration.Sleeping_ram (read_varint r)
  | t -> corrupt "unknown binary VM-state tag %d" t

let add_nodes b nodes =
  add_varint b (Array.length nodes);
  Array.iter
    (fun n ->
      add_string b (Node.name n);
      add_varint b (Node.cpu_capacity n);
      add_varint b (Node.memory_mb n))
    nodes

let add_vms b vms =
  add_varint b (Array.length vms);
  Array.iter
    (fun vm ->
      add_string b (Vm.name vm);
      add_varint b (Vm.memory_mb vm))
    vms

let add_states b c =
  for vm = 0 to Configuration.vm_count c - 1 do
    add_state b (Configuration.state c vm)
  done

let read_nodes r =
  Array.init (read_count r) (fun id ->
      let name = read_string r in
      let cpu = read_varint r in
      let mem = read_varint r in
      (* [Node.make] rejects non-positive capacities; a zeroed node
         in a journal is a crashed one (the only way the API builds
         one), so rebuild it through [Node.crashed] *)
      if cpu <= 0 || mem <= 0 then
        Node.crashed
          (Node.make ~id ~name ~cpu_capacity:(max 1 cpu) ~memory_mb:(max 1 mem))
      else Node.make ~id ~name ~cpu_capacity:cpu ~memory_mb:mem)

let read_vms r =
  Array.init (read_count r) (fun id ->
      let name = read_string r in
      let mem = read_varint r in
      if mem <= 0 then corrupt "VM %d with %d MB of memory" id mem;
      Vm.make ~id ~name ~memory_mb:mem)

(* A full state vector over [base]'s tables, sharing every chunk in
   which [base] already holds the decoded states. *)
let read_states r base =
  Configuration.edit base (fun e ->
      for vm = 0 to Configuration.vm_count base - 1 do
        let s = read_state r in
        if not (Configuration.equal_vm_state (Configuration.read e vm) s) then
          Configuration.write e vm s
      done)

(* -- stream codec ---------------------------------------------------------------- *)

(* The source and the demand of the last [Switch_begin] a stream
   carried. Writer and reader update it only after a whole frame, so the
   reader's codec at the end of a valid prefix is the writer's for the
   next append. Both are immutable, so the codec holds them as they
   are. *)
type codec = {
  mutable source : Configuration.t option;
  mutable demand : Demand.t option;
}

let codec () = { source = None; demand = None }

(* Tables compare by field: [Node.equal] and [Vm.equal] compare ids
   only. The [==] fast path, like the reader's sharing below, rests on
   nothing writing a configuration's node or VM array in place. *)
let same_node (a : Node.t) (b : Node.t) =
  a == b
  || a.id = b.id && String.equal a.name b.name
     && a.cpu_capacity = b.cpu_capacity && a.memory_mb = b.memory_mb

let same_vm (a : Vm.t) (b : Vm.t) =
  a == b
  || a.id = b.id && String.equal a.name b.name && a.memory_mb = b.memory_mb

let same_table same a b =
  a == b || (Array.length a = Array.length b && Array.for_all2 same a b)

let same_tables a b =
  same_table same_node (Configuration.nodes a) (Configuration.nodes b)
  && same_table same_vm (Configuration.vms a) (Configuration.vms b)

(* A diff: the count, then (index, value) for each entry of [x] that
   differs from [base]'s, in ascending index. [iter_changed] skips the
   chunks [x] shares with [base], so a diff costs the chunks written
   since [base]. *)
let add_diff b iter_changed add_value base x =
  let diff = ref [] in
  iter_changed (fun i _ v -> diff := (i, v) :: !diff) base x;
  add_varint b (List.length !diff);
  List.iter
    (fun (i, v) ->
      add_varint b i;
      add_value b v)
    (List.rev !diff)

(* [base] edited by a diff: the result shares every chunk the diff does
   not write. An index out of range is damage. *)
let read_diff r ~what length edit write read_value base =
  let n = length base in
  edit base (fun e ->
      for _ = 1 to read_count r do
        let i = read_varint r in
        if i < 0 || i >= n then corrupt "%s diff names VM %d of %d" what i n;
        write e i (read_value r)
      done)

let add_state_diff b base c =
  add_diff b Configuration.iter_changed add_state base c

let read_state_diff r base =
  read_diff r ~what:"state" Configuration.vm_count Configuration.edit
    Configuration.write read_state base

let add_switch_configs codec b ~source ~target =
  (match codec.source with
  | Some p
    when same_table same_node (Configuration.nodes p) (Configuration.nodes source)
    ->
    Buffer.add_char b '\000'
  | _ ->
    Buffer.add_char b '\001';
    add_nodes b (Configuration.nodes source));
  (match codec.source with
  | Some p when same_table same_vm (Configuration.vms p) (Configuration.vms source)
    ->
    Buffer.add_char b '\000';
    add_state_diff b p source
  | _ ->
    Buffer.add_char b '\001';
    add_vms b (Configuration.vms source);
    add_states b source);
  if same_tables source target then begin
    Buffer.add_char b '\000';
    add_state_diff b source target
  end
  else begin
    Buffer.add_char b '\001';
    add_nodes b (Configuration.nodes target);
    add_vms b (Configuration.vms target);
    add_states b target
  end

let no_earlier_table () =
  corrupt "table reference with no earlier table in the stream"

(* The codec's source over a frame's node table: its VM array and its
   state chunks are shared. Only a node table of another size costs a
   copy of the states. *)
let over_nodes p nodes =
  if Configuration.nodes p == nodes then p
  else if Array.length nodes = Configuration.node_count p then
    Configuration.with_nodes p nodes
  else
    Configuration.with_states
      (Configuration.make ~nodes ~vms:(Configuration.vms p))
      (Array.init (Configuration.vm_count p) (Configuration.state p))

(* The source, the target and later switches share the codec's tables
   and every state chunk no diff wrote: nothing writes a configuration's
   node or VM array in place. *)
let read_switch_configs codec r =
  let nodes =
    match read_byte r with
    | 0 -> (
      match codec.source with
      | Some p -> Configuration.nodes p
      | None -> no_earlier_table ())
    | 1 -> read_nodes r
    | t -> corrupt "unknown binary table tag %d" t
  in
  let source =
    match read_byte r with
    | 0 -> (
      match codec.source with
      | Some p -> read_state_diff r (over_nodes p nodes)
      | None -> no_earlier_table ())
    | 1 ->
      let vms = read_vms r in
      read_states r (Configuration.make ~nodes ~vms)
    | t -> corrupt "unknown binary table tag %d" t
  in
  let target =
    match read_byte r with
    | 0 -> read_state_diff r source
    | 1 ->
      let nodes = read_nodes r in
      let vms = read_vms r in
      read_states r (Configuration.make ~nodes ~vms)
    | t -> corrupt "unknown binary target tag %d" t
  in
  (source, target)

let add_plan b plan =
  let pools = Plan.pools plan in
  add_varint b (List.length pools);
  List.iter
    (fun pool ->
      add_varint b (List.length pool);
      List.iter (add_action b) pool)
    pools

let read_plan r =
  Plan.make
    (List.init (read_count r) (fun _ ->
         List.init (read_count r) (fun _ -> read_action r)))

(* 0 and a diff against the codec's demand when the VM counts match,
   else 1, the count and every demand *)
let add_demand codec b d =
  match codec.demand with
  | Some p when Demand.vm_count p = Demand.vm_count d ->
    Buffer.add_char b '\000';
    add_diff b (Chunked.iter_changed Int.equal) add_varint p d
  | _ ->
    Buffer.add_char b '\001';
    let n = Demand.vm_count d in
    add_varint b n;
    for vm = 0 to n - 1 do
      add_varint b (Demand.cpu d vm)
    done

let read_demand codec r =
  match read_byte r with
  | 0 -> (
    match codec.demand with
    | Some p ->
      read_diff r ~what:"demand" Demand.vm_count Demand.edit Demand.write
        read_varint p
    | None -> corrupt "demand diff with no earlier demand in the stream")
  | 1 ->
    let n = read_count r in
    Demand.of_fn ~vm_count:n (fun _ -> read_varint r)
  | t -> corrupt "unknown binary demand tag %d" t

let write_payload codec b r =
  let tag t = Buffer.add_char b (Char.unsafe_chr t) in
  match r with
  | Switch_begin { switch; at_s; source; target; plan; demand; seed } -> (
    tag 1;
    add_varint b switch;
    add_float b at_s;
    add_switch_configs codec b ~source ~target;
    add_plan b plan;
    add_demand codec b demand;
    match seed with
    | None -> Buffer.add_char b '\000'
    | Some s ->
      Buffer.add_char b '\001';
      add_varint b s)
  | Action_started { switch; pool; attempt; at_s; action } ->
    tag 2;
    add_varint b switch;
    add_varint b pool;
    add_varint b attempt;
    add_float b at_s;
    add_action b action
  | Action_done { switch; pool; at_s; action } ->
    tag 3;
    add_varint b switch;
    add_varint b pool;
    add_float b at_s;
    add_action b action
  | Action_failed { switch; pool; at_s; action } ->
    tag 4;
    add_varint b switch;
    add_varint b pool;
    add_float b at_s;
    add_action b action
  | Pool_committed { switch; pool; at_s } ->
    tag 5;
    add_varint b switch;
    add_varint b pool;
    add_float b at_s
  | Switch_end { switch; at_s; aborted } ->
    tag 6;
    add_varint b switch;
    add_float b at_s;
    Buffer.add_char b (if aborted then '\001' else '\000')
  | Submission { at_s; vjob; vms; disposition } -> (
    tag 7;
    Buffer.add_char b (Char.unsafe_chr submission_version);
    add_float b at_s;
    add_varint b vjob;
    add_varint b vms;
    match disposition with
    | Queued -> Buffer.add_char b '\000'
    | Admitted -> Buffer.add_char b '\001'
    | Rejected reason ->
      Buffer.add_char b '\002';
      add_string b reason)
  | Ladder { at_s; from_level; to_level; reason } ->
    tag 8;
    Buffer.add_char b (Char.unsafe_chr ladder_version);
    add_float b at_s;
    add_varint b from_level;
    add_varint b to_level;
    add_string b reason

let read_payload codec r =
  match read_byte r with
  | 1 ->
    let switch = read_varint r in
    let at_s = read_float r in
    let source, target = read_switch_configs codec r in
    let plan = read_plan r in
    let demand = read_demand codec r in
    let seed =
      match read_byte r with
      | 0 -> None
      | 1 -> Some (read_varint r)
      | t -> corrupt "unknown binary seed tag %d" t
    in
    Switch_begin { switch; at_s; source; target; plan; demand; seed }
  | 2 ->
    let switch = read_varint r in
    let pool = read_varint r in
    let attempt = read_varint r in
    let at_s = read_float r in
    Action_started { switch; pool; attempt; at_s; action = read_action r }
  | 3 ->
    let switch = read_varint r in
    let pool = read_varint r in
    let at_s = read_float r in
    Action_done { switch; pool; at_s; action = read_action r }
  | 4 ->
    let switch = read_varint r in
    let pool = read_varint r in
    let at_s = read_float r in
    Action_failed { switch; pool; at_s; action = read_action r }
  | 5 ->
    let switch = read_varint r in
    let pool = read_varint r in
    Pool_committed { switch; pool; at_s = read_float r }
  | 6 ->
    let switch = read_varint r in
    let at_s = read_float r in
    let aborted =
      match read_byte r with
      | 0 -> false
      | 1 -> true
      | t -> corrupt "unknown binary aborted tag %d" t
    in
    Switch_end { switch; at_s; aborted }
  | 7 ->
    let v = read_byte r in
    if v <> submission_version then
      corrupt "unknown submission record version %d" v;
    let at_s = read_float r in
    let vjob = read_varint r in
    let vms = read_varint r in
    let disposition =
      match read_byte r with
      | 0 -> Queued
      | 1 -> Admitted
      | 2 -> Rejected (read_string r)
      | d -> corrupt "unknown submission disposition tag %d" d
    in
    Submission { at_s; vjob; vms; disposition }
  | 8 ->
    let v = read_byte r in
    if v <> ladder_version then corrupt "unknown ladder record version %d" v;
    let at_s = read_float r in
    let from_level = read_varint r in
    let to_level = read_varint r in
    Ladder { at_s; from_level; to_level; reason = read_string r }
  | t -> corrupt "unknown binary record tag %d" t

(* Highest record tag this reader decodes; bump alongside new
   constructors in [write_payload]/[read_payload]. Frames with a higher
   tag are skipped, not treated as torn. *)
let max_binary_tag = 8

(* one shared scratch buffer: frames are built whole before being
   appended so the header can carry the payload length and checksum *)
let scratch = Buffer.create 4096

(* a whole frame moves the codec to its [Switch_begin]'s source and
   demand *)
let advance codec = function
  | Switch_begin { source; demand; _ } ->
    codec.source <- Some source;
    codec.demand <- Some demand
  | _ -> ()

let write_frame codec b r =
  Buffer.clear scratch;
  write_payload codec scratch r;
  let payload = Buffer.contents scratch in
  let len = String.length payload in
  let crc = checksum payload in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.unsafe_chr version);
  for i = 0 to 3 do
    Buffer.add_char b (Char.unsafe_chr ((len lsr (8 * i)) land 0xff))
  done;
  for i = 0 to 3 do
    Buffer.add_char b (Char.unsafe_chr ((crc lsr (8 * i)) land 0xff))
  done;
  Buffer.add_string b payload;
  advance codec r

let to_frame codec r =
  let b = Buffer.create 256 in
  write_frame codec b r;
  Buffer.contents b

type frame_result =
  | Frame of t * int  (* decoded record, offset just past its frame *)
  | Skipped of string * int  (* intact frame, unknown record tag *)
  | Torn of string

let read_u32 s pos =
  Char.code (String.unsafe_get s pos)
  lor (Char.code (String.unsafe_get s (pos + 1)) lsl 8)
  lor (Char.code (String.unsafe_get s (pos + 2)) lsl 16)
  lor (Char.code (String.unsafe_get s (pos + 3)) lsl 24)

let read_frame codec src ~pos =
  let total = String.length src in
  if pos >= total then None
  else if pos + header_size > total then Some (Torn "short frame header")
  else if not (src.[pos] = 'E' && src.[pos + 1] = 'J') then
    Some (Torn "bad frame magic")
  else if Char.code src.[pos + 2] <> version then
    Some (Torn (Printf.sprintf "unknown format version %d" (Char.code src.[pos + 2])))
  else begin
    let len = read_u32 src (pos + 3) in
    let crc = read_u32 src (pos + 7) in
    let payload_start = pos + header_size in
    if len < 0 || len > total - payload_start then Some (Torn "short payload")
    else if checksum_sub src ~pos:payload_start ~len <> crc then
      Some (Torn "frame checksum mismatch")
    else if
      (* the checksum proves the frame arrived whole, so an unknown
         leading tag is a record kind from a newer writer, not damage:
         skip the frame instead of ending the durable prefix *)
      len > 0
      && (Char.code src.[payload_start] < 1
         || Char.code src.[payload_start] > max_binary_tag)
    then
      Some
        (Skipped
           ( Printf.sprintf "unknown record tag %d in intact frame"
               (Char.code src.[payload_start]),
             payload_start + len ))
    else
      let r = { src; pos = payload_start; limit = payload_start + len } in
      match read_payload codec r with
      | record ->
        if r.pos <> r.limit then Some (Torn "trailing payload bytes")
        else begin
          advance codec record;
          Some (Frame (record, r.limit))
        end
      | exception Corrupt reason -> Some (Torn reason)
  end

(* Group-commit policy hook: every record but [Action_started] is a
   commit point — the journal must be durable past it before the caller
   learns the outcome. Started records may batch: losing one re-runs an
   idempotent action on resume, losing a terminal record would let a
   completion callback act on state the journal never saw. *)
let commit_point = function
  | Action_started _ -> false
  | Switch_begin _ | Action_done _ | Action_failed _ | Pool_committed _
  | Switch_end _ -> true
  (* admission decisions and ladder transitions must be durable before
     the daemon acts on them: a resumed daemon must not re-admit a
     rejected submission or forget which rung it was on *)
  | Submission _ | Ladder _ -> true

(* -- equality & printing ------------------------------------------------------ *)

let equal_plan a b =
  let pa = Plan.pools a and pb = Plan.pools b in
  List.length pa = List.length pb
  && List.for_all2
       (fun la lb ->
         List.length la = List.length lb && List.for_all2 Action.equal la lb)
       pa pb

let equal a b =
  match (a, b) with
  | Switch_begin x, Switch_begin y ->
    x.switch = y.switch && x.at_s = y.at_s
    && Configuration.equal x.source y.source
    && Configuration.equal x.target y.target
    && equal_plan x.plan y.plan && Demand.equal x.demand y.demand
    && x.seed = y.seed
  | Action_started x, Action_started y ->
    x.switch = y.switch && x.pool = y.pool && x.attempt = y.attempt
    && x.at_s = y.at_s && Action.equal x.action y.action
  | Action_done x, Action_done y ->
    x.switch = y.switch && x.pool = y.pool && x.at_s = y.at_s
    && Action.equal x.action y.action
  | Action_failed x, Action_failed y ->
    x.switch = y.switch && x.pool = y.pool && x.at_s = y.at_s
    && Action.equal x.action y.action
  | Pool_committed x, Pool_committed y ->
    x.switch = y.switch && x.pool = y.pool && x.at_s = y.at_s
  | Switch_end x, Switch_end y ->
    x.switch = y.switch && x.at_s = y.at_s && x.aborted = y.aborted
  | Submission x, Submission y ->
    x.at_s = y.at_s && x.vjob = y.vjob && x.vms = y.vms
    && x.disposition = y.disposition
  | Ladder x, Ladder y ->
    x.at_s = y.at_s && x.from_level = y.from_level && x.to_level = y.to_level
    && x.reason = y.reason
  | _ -> false

let pp ppf = function
  | Switch_begin { switch; at_s; plan; _ } ->
    Fmt.pf ppf "begin sw=%d at=%.0fs (%d actions)" switch at_s
      (Plan.action_count plan)
  | Action_started { switch; pool; attempt; at_s; action } ->
    Fmt.pf ppf "start sw=%d pool=%d n=%d at=%.0fs %a" switch pool attempt at_s
      Action.pp action
  | Action_done { switch; pool; at_s; action } ->
    Fmt.pf ppf "done sw=%d pool=%d at=%.0fs %a" switch pool at_s Action.pp
      action
  | Action_failed { switch; pool; at_s; action } ->
    Fmt.pf ppf "failed sw=%d pool=%d at=%.0fs %a" switch pool at_s Action.pp
      action
  | Pool_committed { switch; pool; at_s } ->
    Fmt.pf ppf "pool sw=%d pool=%d at=%.0fs" switch pool at_s
  | Switch_end { switch; at_s; aborted } ->
    Fmt.pf ppf "end sw=%d at=%.0fs%s" switch at_s
      (if aborted then " (aborted)" else "")
  | Submission { at_s; vjob; vms; disposition } ->
    Fmt.pf ppf "submission vj=%d (%d VMs) at=%.0fs %s" vjob vms at_s
      (match disposition with
      | Queued -> "queued"
      | Admitted -> "admitted"
      | Rejected reason -> Printf.sprintf "rejected (%s)" reason)
  | Ladder { at_s; from_level; to_level; reason } ->
    Fmt.pf ppf "ladder %d->%d at=%.0fs (%s)" from_level to_level at_s reason

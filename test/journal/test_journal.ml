(* Tests for the write-ahead switch journal: binary codec round trips,
   checksum and torn-tail handling, the two backends, journal replay,
   and reconciliation of a journaled switch against an observation. *)

open Entropy_core
module Record = Entropy_journal.Record
module Journal = Entropy_journal.Journal
module Recovery = Entropy_journal.Recovery
module Repair = Entropy_fault.Repair

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let testbed_nodes n =
  Array.init n (fun i -> Node.testbed ~id:i ~name:(Printf.sprintf "N%d" i))

let mk_config ?(crashed = []) ~nodes ~vm_count states =
  let node_arr =
    Array.map
      (fun n -> if List.mem (Node.id n) crashed then Node.crashed n else n)
      (testbed_nodes nodes)
  in
  let vms =
    Array.init vm_count (fun i ->
        Vm.make ~id:i ~name:(Printf.sprintf "vm%d" i) ~memory_mb:512)
  in
  Configuration.with_states
    (Configuration.make ~nodes:node_arr ~vms)
    (Array.of_list states)

(* a switch over every vm_state and a multi-pool plan with several
   action shapes — the codec must survive all of them *)
let rich_begin =
  let source =
    mk_config ~crashed:[ 2 ] ~nodes:3 ~vm_count:5
      Configuration.
        [ Waiting; Running 0; Sleeping 1; Sleeping_ram 0; Terminated ]
  in
  let target =
    mk_config ~crashed:[ 2 ] ~nodes:3 ~vm_count:5
      Configuration.
        [ Running 1; Running 1; Running 0; Running 0; Terminated ]
  in
  let plan =
    Plan.make
      [
        [
          Action.Run { vm = 0; dst = 1 };
          Action.Migrate { vm = 1; src = 0; dst = 1 };
        ];
        [
          Action.Resume { vm = 2; src = 1; dst = 0 };
          Action.Resume_ram { vm = 3; host = 0 };
        ];
      ]
  in
  Record.Switch_begin
    {
      switch = 3;
      at_s = 12.5;
      source;
      target;
      plan;
      demand = Demand.of_fn ~vm_count:5 (fun vm -> 10 * vm);
      seed = Some 42;
    }

let switch_records =
  [
    rich_begin;
    Record.Action_started
      {
        switch = 3;
        pool = 0;
        attempt = 2;
        at_s = 13.;
        action = Action.Migrate { vm = 1; src = 0; dst = 1 };
      };
    Record.Action_done
      {
        switch = 3;
        pool = 0;
        at_s = 14.5;
        action = Action.Migrate { vm = 1; src = 0; dst = 1 };
      };
    Record.Action_failed
      {
        switch = 3;
        pool = 0;
        at_s = 15.;
        action = Action.Run { vm = 0; dst = 1 };
      };
    Record.Pool_committed { switch = 3; pool = 0; at_s = 15.5 };
    Record.Switch_end { switch = 3; at_s = 16.; aborted = true };
  ]

(* daemon-level records live outside any switch (switch id -1) *)
let daemon_records =
  [
    Record.Submission
      { at_s = 17.; vjob = 4; vms = 2; disposition = Record.Queued };
    Record.Submission
      { at_s = 17.5; vjob = 4; vms = 2; disposition = Record.Admitted };
    Record.Submission
      {
        at_s = 18.;
        vjob = 5;
        vms = 1;
        disposition = Record.Rejected "queue full";
      };
    Record.Ladder
      { at_s = 19.; from_level = 0; to_level = 2; reason = "queue pressure" };
  ]

let all_records = switch_records @ daemon_records

(* -- record codec ------------------------------------------------------------- *)

let test_record_accessors () =
  List.iter
    (fun r -> check_int "switch id" 3 (Record.switch r))
    switch_records;
  List.iter
    (fun r -> check_int "daemon record switch id" (-1) (Record.switch r))
    daemon_records;
  Alcotest.(check (float 1e-9)) "begin time" 12.5 (Record.at_s rich_begin)

let test_checksum_reference () =
  (* FNV-1a 32-bit reference values — pins the on-disk format *)
  check_int "fnv-1a of empty" 0x811c9dc5 (Record.checksum "");
  check_int "fnv-1a of 'a'" 0xe40c292c (Record.checksum "a")

(* -- backends ----------------------------------------------------------------- *)

let test_mem_backend () =
  let j = Journal.mem () in
  check_bool "no path" true (Journal.path j = None);
  check_int "empty" 0 (Journal.length j);
  List.iter (Journal.append j) all_records;
  check_int "length counts appends" (List.length all_records)
    (Journal.length j);
  check_bool "records round trip in order" true
    (List.for_all2 Record.equal all_records (Journal.records j));
  Journal.close j;
  check_bool "close is a no-op" true
    (List.length (Journal.records j) = List.length all_records)

let test_of_records () =
  let j = Journal.of_records all_records in
  check_int "pre-populated" (List.length all_records) (Journal.length j);
  check_bool "same records" true
    (List.for_all2 Record.equal all_records (Journal.records j))

let temp_journal () =
  let path = Filename.temp_file "entropy_journal" ".wal" in
  Sys.remove path;
  path

let test_file_backend () =
  let path = temp_journal () in
  let j = Journal.open_file path in
  check_string "path" path (Option.get (Journal.path j));
  List.iter (Journal.append j) all_records;
  (* records on an open file journal reflect the flushed file *)
  check_bool "records while open" true
    (List.for_all2 Record.equal all_records (Journal.records j));
  Journal.close j;
  Journal.close j;
  let loaded, dropped = Journal.load path in
  check_int "no torn lines" 0 dropped;
  check_bool "load round trip" true
    (List.for_all2 Record.equal all_records loaded);
  (* reopening appends after the existing records *)
  let j2 = Journal.open_file path in
  check_int "length counts existing lines" (List.length all_records)
    (Journal.length j2);
  Journal.append j2 (Record.Switch_end { switch = 4; at_s = 20.; aborted = false });
  Journal.close j2;
  check_int "appended after reopen"
    (List.length all_records + 1)
    (List.length (fst (Journal.load path)));
  Sys.remove path

(* -- binary frame form -------------------------------------------------------- *)

(* the frames of one stream, written with one codec *)
let stream_frames records =
  let codec = Record.codec () in
  List.map (Record.to_frame codec) records

let test_binary_round_trip () =
  (* frame by frame, with one codec per direction of the stream *)
  let writer = Record.codec () and reader = Record.codec () in
  List.iter
    (fun r ->
      let frame = Record.to_frame writer r in
      check_bool "frame starts with the magic" true
        (String.length frame >= Record.header_size
        && String.sub frame 0 2 = Record.magic);
      match Record.read_frame reader frame ~pos:0 with
      | Some (Record.Frame (r', next)) ->
        check_bool
          (Format.asprintf "binary round trip: %a" Record.pp r)
          true (Record.equal r r');
        check_int "frame consumed whole" (String.length frame) next
      | Some (Record.Skipped (reason, _)) ->
        Alcotest.fail ("fresh frame read as unknown-tag: " ^ reason)
      | Some (Record.Torn reason) ->
        Alcotest.fail ("fresh frame read as torn: " ^ reason)
      | None -> Alcotest.fail "fresh frame read as end of input")
    all_records

let test_binary_crc_every_offset () =
  (* corrupt every single byte of a mid-journal frame in turn: wherever
     the flip lands (magic, version, length, crc, payload) the decoded
     prefix must stop exactly before the corrupted frame *)
  let path = temp_journal () in
  let first = List.nth all_records 1 in
  let frame_a, frame_b, frame_c =
    match stream_frames [ first; rich_begin; List.nth all_records 5 ] with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  let base = frame_a ^ frame_b ^ frame_c in
  let a_len = String.length frame_a in
  for k = 0 to String.length frame_b - 1 do
    let corrupted = Bytes.of_string base in
    Bytes.set corrupted (a_len + k)
      (Char.chr (Char.code (Bytes.get corrupted (a_len + k)) lxor 0x5a));
    let oc = open_out_bin path in
    output_bytes oc corrupted;
    close_out oc;
    let loaded, dropped = Journal.load path in
    check_bool
      (Printf.sprintf "offset %d: prefix ends before the corrupt frame" k)
      true
      (match loaded with [ r ] -> Record.equal r first | _ -> false);
    check_bool (Printf.sprintf "offset %d: tail dropped" k) true (dropped >= 1)
  done;
  Sys.remove path

let test_binary_torn_tail_cuts () =
  (* a crash mid-append can cut anywhere: mid-header, mid-payload, one
     byte in — the valid prefix must survive, the cut frame must not *)
  let path = temp_journal () in
  let frame_a, frame_b =
    match stream_frames [ List.nth all_records 4; rich_begin ] with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  List.iter
    (fun cut ->
      let oc = open_out_bin path in
      output_string oc frame_a;
      output_string oc (String.sub frame_b 0 cut);
      close_out oc;
      let loaded, dropped = Journal.load path in
      check_int (Printf.sprintf "cut %d: valid prefix kept" cut) 1
        (List.length loaded);
      check_int (Printf.sprintf "cut %d: torn tail dropped" cut) 1 dropped)
    [
      1;
      Record.header_size - 3;
      Record.header_size + 3;
      String.length frame_b - 1;
    ];
  Sys.remove path

(* hand-built frame with a correct header and checksum over an
   arbitrary payload, as a newer-version writer would emit *)
let craft_frame payload =
  let b = Buffer.create 64 in
  Buffer.add_string b Record.magic;
  Buffer.add_char b (Char.chr Record.version);
  let len = String.length payload in
  let crc = Record.checksum payload in
  for i = 0 to 3 do
    Buffer.add_char b (Char.chr ((len lsr (8 * i)) land 0xff))
  done;
  for i = 0 to 3 do
    Buffer.add_char b (Char.chr ((crc lsr (8 * i)) land 0xff))
  done;
  Buffer.add_string b payload;
  Buffer.contents b

let test_binary_unknown_tag_skipped () =
  (* forward compatibility: an intact frame whose payload leads with a
     record tag this reader does not know must surface as a clean skip
     diagnostic — not a crash, and not a torn tail that silently
     truncates the records behind it *)
  let future = craft_frame "\099future-record-payload" in
  (match Record.read_frame (Record.codec ()) future ~pos:0 with
  | Some (Record.Skipped (reason, next)) ->
    check_bool "diagnostic names the tag" true
      (let needle = "unknown record tag 99" in
       let n = String.length needle in
       let rec find i =
         i + n <= String.length reason
         && (String.sub reason i n = needle || find (i + 1))
       in
       find 0);
    check_int "skip lands just past the frame" (String.length future) next
  | Some (Record.Frame _) -> Alcotest.fail "future frame decoded as a record"
  | Some (Record.Torn reason) ->
    Alcotest.fail ("future frame read as torn: " ^ reason)
  | None -> Alcotest.fail "future frame read as end of input");
  (* sandwiched in a journal file the frames behind it must survive *)
  let path = temp_journal () in
  let frame_a, frame_c =
    match stream_frames [ List.nth all_records 1; List.nth all_records 5 ] with
    | [ a; c ] -> (a, c)
    | _ -> assert false
  in
  let oc = open_out_bin path in
  output_string oc (frame_a ^ future ^ frame_c);
  close_out oc;
  let loaded, dropped = Journal.load path in
  check_int "both known records load" 2 (List.length loaded);
  check_bool "records around the skip intact" true
    (List.for_all2 Record.equal
       [ List.nth all_records 1; List.nth all_records 5 ]
       loaded);
  check_int "nothing counted as torn" 0 dropped;
  (* a crash can still tear a future frame: a cut partway through it
     must end the durable prefix exactly there *)
  let oc = open_out_bin path in
  output_string oc
    (frame_a ^ String.sub future 0 (String.length future - 1));
  close_out oc;
  let loaded, dropped = Journal.load path in
  check_int "prefix before the torn future frame" 1 (List.length loaded);
  check_int "torn future frame dropped" 1 dropped;
  Sys.remove path

let test_reopen_after_torn_tail () =
  let path = temp_journal () in
  let j = Journal.open_file path in
  Journal.append j (Record.Switch_end { switch = 0; at_s = 1.; aborted = false });
  Journal.close j;
  (* crash mid-append: garbage bytes after the durable record *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "EJ\x01torn-mid-frame";
  close_out oc;
  let recs, dropped = Journal.load path in
  check_int "one valid record" 1 (List.length recs);
  check_int "tail dropped" 1 dropped;
  (* reopening truncates the torn tail so post-crash appends land inside
     the durable prefix and are read back *)
  let j2 = Journal.open_file path in
  check_int "reopen counts the valid prefix" 1 (Journal.length j2);
  Journal.append j2 (Record.Switch_end { switch = 1; at_s = 2.; aborted = false });
  Journal.append j2 (Record.Switch_end { switch = 2; at_s = 3.; aborted = false });
  Journal.close j2;
  let recs2, dropped2 = Journal.load path in
  check_int "post-crash appends durable" 3 (List.length recs2);
  check_int "file clean again" 0 dropped2;
  Sys.remove path

let test_next_switch_after_reopen () =
  (* switches 0..k, interleaved with a daemon record (switch -1) *)
  let k = 3 in
  let path = temp_journal () in
  let j = Journal.open_file path in
  check_int "fresh journal starts at 0" 0 (Journal.next_switch j);
  for sw = 0 to k do
    Journal.append j
      (Record.Switch_end { switch = sw; at_s = float_of_int sw; aborted = false });
    Journal.append j
      (Record.Ladder { at_s = 0.; from_level = 0; to_level = 1; reason = "r" })
  done;
  check_int "appends advance it" (k + 1) (Journal.next_switch j);
  Journal.close j;
  let j2 = Journal.open_file path in
  check_int "reopen continues past the highest id" (k + 1)
    (Journal.next_switch j2);
  Journal.close j2;
  Sys.remove path

let test_json_lines_refused () =
  (* a journal written in the pre-binary format (one checksummed JSON
     line per record): both readers refuse it, and [open_file] must not
     truncate it as a torn tail *)
  let path = temp_journal () in
  let contents =
    "{\"crc\":1,\"rec\":\"{\\\"t\\\":\\\"end\\\"}\"}\n"
  in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  let expected =
    Sys_error (path ^ ": JSON-lines journal (pre-binary format) is not supported")
  in
  Alcotest.check_raises "load refuses it" expected (fun () ->
      ignore (Journal.load path));
  Alcotest.check_raises "open_file refuses it" expected (fun () ->
      ignore (Journal.open_file path));
  let ic = open_in_bin path in
  let after = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check_string "file left byte-identical" contents after;
  Sys.remove path

let read_bytes path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* [chaos12_v1.journal] and [chaos12_v2.journal] hold the frames that
   `entropyctl chaos --vms 12 --nodes 4 --seed 42 --journal F` wrote in
   format version 1 (before the stream codec) and version 2 (before
   source and demand diffs). A current reader refuses both rather than
   reading the first frame as a torn tail and truncating the file. *)
let test_older_version_refused () =
  List.iter
    (fun (fixture, v) ->
      let before = read_bytes fixture in
      check_bool
        (Printf.sprintf "%s is a version-%d binary journal" fixture v)
        true
        (String.sub before 0 2 = Record.magic && Char.code before.[2] = v);
      let path = temp_journal () in
      let oc = open_out_bin path in
      output_string oc before;
      close_out oc;
      let expected =
        Sys_error
          (Printf.sprintf
             "%s: journal format version %d is older than this reader's (3) \
              and is not supported"
             path v)
      in
      Alcotest.check_raises (fixture ^ ": load refuses it") expected (fun () ->
          ignore (Journal.load path));
      Alcotest.check_raises (fixture ^ ": open_file refuses it") expected
        (fun () -> ignore (Journal.open_file path));
      Alcotest.check_raises (fixture ^ ": reopen refuses it") expected
        (fun () -> ignore (Journal.reopen path));
      check_string (fixture ^ ": file left byte-identical") before
        (read_bytes path);
      Sys.remove path;
      check_string (fixture ^ ": fixture untouched") before (read_bytes fixture))
    [ ("chaos12_v1.journal", 1); ("chaos12_v2.journal", 2) ];
  (* a journal from a newer writer is refused the same way, not cut to
     nothing as a torn tail at byte 0 *)
  let path = temp_journal () in
  let j = Journal.open_file path in
  Journal.append j (Record.Switch_end { switch = 0; at_s = 1.; aborted = false });
  Journal.close j;
  let current = read_bytes path in
  let newer =
    String.mapi
      (fun i c -> if i = 2 then Char.chr (Record.version + 1) else c)
      current
  in
  let oc = open_out_bin path in
  output_string oc newer;
  close_out oc;
  let expected =
    Sys_error
      (Printf.sprintf
         "%s: journal format version %d is newer than this reader's (%d) \
          and is not supported"
         path (Record.version + 1) Record.version)
  in
  Alcotest.check_raises "load refuses a newer version" expected (fun () ->
      ignore (Journal.load path));
  Alcotest.check_raises "open_file refuses a newer version" expected
    (fun () -> ignore (Journal.open_file path));
  check_string "newer journal left byte-identical" newer (read_bytes path);
  Sys.remove path

let test_open_keeps_unknown_tag () =
  (* a clean journal holding a newer writer's frame: opening it and
     appending keeps every frame on disk *)
  let a = Record.Switch_end { switch = 0; at_s = 1.; aborted = false } in
  let b = Record.Switch_end { switch = 1; at_s = 2.; aborted = false } in
  let c = Record.Switch_end { switch = 2; at_s = 3.; aborted = false } in
  let frames = stream_frames [ a; b; c ] in
  let future = craft_frame "\099future-record-payload" in
  let before = List.nth frames 0 ^ future ^ List.nth frames 1 in
  let path = temp_journal () in
  let oc = open_out_bin path in
  output_string oc before;
  close_out oc;
  let j = Journal.open_file path in
  Journal.append j c;
  Journal.close j;
  check_string "all four frames on disk" (before ^ List.nth frames 2)
    (read_bytes path);
  let loaded, dropped = Journal.load path in
  check_int "no torn tail" 0 dropped;
  check_bool "load returns [A; B; C]" true
    (List.length loaded = 3 && List.for_all2 Record.equal [ a; b; c ] loaded);
  Sys.remove path

(* -- stream codec ------------------------------------------------------------- *)

(* [Record.equal] compares configurations by their states; the codec
   must also carry the tables *)
let same_config a b =
  let node n = (Node.id n, Node.name n, Node.cpu_capacity n, Node.memory_mb n) in
  let vm v = (Vm.id v, Vm.name v, Vm.memory_mb v) in
  Configuration.equal a b
  && Array.map node (Configuration.nodes a) = Array.map node (Configuration.nodes b)
  && Array.map vm (Configuration.vms a) = Array.map vm (Configuration.vms b)

let same_record a b =
  Record.equal a b
  &&
  match (a, b) with
  | Record.Switch_begin x, Record.Switch_begin y ->
    same_config x.source y.source && same_config x.target y.target
  | _ -> true

let check_stream what expected loaded =
  check_int (what ^ ": record count") (List.length expected)
    (List.length loaded);
  List.iteri
    (fun i (e, l) ->
      check_bool (Printf.sprintf "%s: record %d" what i) true (same_record e l))
    (List.combine expected loaded)

let cfg ?crashed ?(vm_count = 4) states =
  mk_config ?crashed ~nodes:3 ~vm_count (Array.to_list states)

let begin_of switch source target =
  Record.Switch_begin
    {
      switch;
      at_s = float_of_int switch;
      source;
      target;
      plan = Plan.make [ [ Action.Run { vm = 0; dst = 1 } ] ];
      demand = Demand.uniform ~vm_count:(Configuration.vm_count source) 30;
      seed = None;
    }

let st = Configuration.[| Waiting; Running 0; Sleeping 1; Running 1 |]
let st' = Configuration.[| Running 1; Running 0; Running 0; Terminated |]

let configs = function
  | Record.Switch_begin { source; target; _ } -> (source, target)
  | _ -> Alcotest.fail "not a Switch_begin"

(* A stream where the VM table repeats (physically, and equal by field
   in fresh arrays), then a node crashes, then the target's tables
   differ from the source's (a crashed node, a VM more). *)
let codec_stream () =
  let s0 = cfg st in
  [
    begin_of 0 s0 (Configuration.with_states s0 st');
    Record.Action_done
      { switch = 0; pool = 0; at_s = 0.5; action = Action.Run { vm = 0; dst = 1 } };
    begin_of 1 (Configuration.with_states s0 st') (cfg st);
    begin_of 2 (cfg st') (cfg st');
    begin_of 3 (cfg ~crashed:[ 2 ] st') (cfg ~crashed:[ 2 ] st);
    begin_of 4 (cfg ~crashed:[ 2 ] st) (cfg st);
    begin_of 5 (cfg st)
      (cfg ~vm_count:5 Configuration.[| Running 0; Waiting; Waiting; Waiting; Running 2 |]);
    begin_of 6 (cfg st) (cfg st');
  ]

let test_codec_round_trip () =
  let records = codec_stream () in
  let frames = stream_frames records in
  let len i = String.length (List.nth frames i) in
  check_bool "a repeated VM and node table is a reference" true
    (len 2 < len 0 - 20 && len 3 <= len 2);
  check_bool "a crashed node rewrites the node table only" true
    (len 3 < len 4 && len 4 < len 0);
  check_bool "the full-target fallback writes the target's tables" true
    (len 5 > len 4 && len 6 > len 0);
  (* both backends, and a file journal reopened mid-stream *)
  check_stream "mem" records (Journal.records (Journal.of_records records));
  let path = temp_journal () in
  let j = Journal.open_file path in
  List.iteri (fun i r -> if i < 4 then Journal.append j r) records;
  Journal.close j;
  let j = Journal.open_file path in
  List.iteri (fun i r -> if i >= 4 then Journal.append j r) records;
  Journal.close j;
  check_string "reopened writer continues the stream byte for byte"
    (String.concat "" frames) (read_bytes path);
  let loaded, dropped = Journal.load path in
  check_int "clean" 0 dropped;
  check_stream "file" records loaded;
  Sys.remove path;
  (* one node array and one VM array across the stream's switches *)
  let loaded = Array.of_list loaded in
  let s0, t0 = configs loaded.(0) and s2, t2 = configs loaded.(3) in
  let s3, _ = configs loaded.(4) and s4, t4 = configs loaded.(5) in
  check_bool "target shares the source's VM table" true
    (Configuration.vms t0 == Configuration.vms s0);
  check_bool "later switches share the VM table" true
    (Configuration.vms s2 == Configuration.vms s0
    && Configuration.vms t2 == Configuration.vms s0
    && Configuration.nodes s2 == Configuration.nodes s0);
  check_bool "a crashed node gives a new node table, same VM table" true
    (Configuration.nodes s3 != Configuration.nodes s0
    && Node.is_crashed (Configuration.nodes s3).(2)
    && Configuration.vms s3 == Configuration.vms s0);
  check_bool "fallback target has tables of its own" true
    (Configuration.nodes t4 != Configuration.nodes s4
    && not (Node.is_crashed (Configuration.nodes t4).(2)))

let test_codec_reference_without_table () =
  let frames = stream_frames [ begin_of 0 (cfg st) (cfg st'); begin_of 1 (cfg st') (cfg st) ] in
  let second = List.nth frames 1 in
  (match Record.read_frame (Record.codec ()) second ~pos:0 with
  | Some (Record.Torn reason) ->
    check_string "reason" "table reference with no earlier table in the stream"
      reason
  | _ -> Alcotest.fail "a dangling table reference must decode as Torn");
  let path = temp_journal () in
  let oc = open_out_bin path in
  output_string oc second;
  close_out oc;
  let loaded, dropped = Journal.load path in
  check_int "nothing loads" 0 (List.length loaded);
  check_int "torn" 1 dropped;
  Sys.remove path

let test_codec_cut_every_byte () =
  (* a crash anywhere inside a table-referencing Switch_begin drops only
     that frame; reopening and appending continues the stream *)
  let records = codec_stream () in
  let prefix = List.filteri (fun i _ -> i < 2) records in
  let next = List.nth records 2 and after = List.nth records 3 in
  let frames = stream_frames (prefix @ [ next ]) in
  let kept = String.concat "" (List.filteri (fun i _ -> i < 2) frames) in
  let frame = List.nth frames 2 in
  let path = temp_journal () in
  for cut = 0 to String.length frame - 1 do
    let label what = Printf.sprintf "cut %d: %s" cut what in
    let oc = open_out_bin path in
    output_string oc (kept ^ String.sub frame 0 cut);
    close_out oc;
    let loaded, dropped = Journal.load path in
    check_stream (label "prefix") prefix loaded;
    check_int (label "dropped") (if cut = 0 then 0 else 1) dropped;
    let j = Journal.open_file path in
    Journal.append j after;
    Journal.close j;
    let loaded, dropped = Journal.load path in
    check_int (label "clean after reopen") 0 dropped;
    check_stream (label "appended after the cut") (prefix @ [ after ]) loaded
  done;
  Sys.remove path

(* The seed-0 burst-daemon journal (the test/daemon [burst0] episode)
   was 1,921,436 bytes with whole configurations in every Switch_begin,
   and 282,550 bytes with every source and demand written in full. *)
let test_burst0_journal_size () =
  let size = String.length (read_bytes "burst0.wal") in
  if size > 230_000 then
    Alcotest.failf "burst0.wal is %d bytes, above 230 kB" size;
  let _, dropped = Journal.load "burst0.wal" in
  check_int "loads clean" 0 dropped

(* The byte offset of every frame of a clean journal, and its end. *)
let frame_offsets bytes =
  let codec = Record.codec () in
  let rec go acc pos =
    match Record.read_frame codec bytes ~pos with
    | None -> Array.of_list (List.rev (pos :: acc))
    | Some (Record.Frame (_, next)) -> go (pos :: acc) next
    | Some (Record.Skipped (reason, _) | Record.Torn reason) ->
      Alcotest.failf "frame at byte %d: %s" pos reason
  in
  go [] 0

let is_begin = function Record.Switch_begin _ -> true | _ -> false

(* A controller killed at a record boundary, or partway through the
   frame after it, reopens its journal and appends the rest of the
   episode: the result must load as the original records. Every append
   after the cut rests on the codec the reader rebuilt from the prefix,
   so this holds only if that codec is the writer's. A boundary cut is
   reopened with [open_file], a torn one with [reopen], whose records
   must be the prefix. Checks every [every]-th boundary, the last one,
   and each boundary on either side of a [Switch_begin] (where the
   codec moves); returns how many. *)
let check_reopen ~every file =
  let bytes = read_bytes file in
  let all = fst (Journal.load file) in
  let records = Array.of_list all in
  let offsets = frame_offsets bytes in
  let n = Array.length records in
  if Array.length offsets <> n + 1 then
    Alcotest.failf "%s: %d frames for %d records" file
      (Array.length offsets - 1) n;
  let path = temp_journal () in
  let reopen_at k cut =
    let expect what ok =
      if not ok then
        Alcotest.failf "%s, %d records, cut at byte %d: %s" file k cut what
    in
    let oc = open_out_bin path in
    output_substring oc bytes 0 cut;
    close_out oc;
    let j =
      if cut = offsets.(k) then Journal.open_file path
      else begin
        let j, (prefix, dropped) = Journal.reopen path in
        expect "torn frame dropped" (dropped = 1);
        expect "reopen returns the prefix"
          (List.equal Record.equal prefix (List.filteri (fun i _ -> i < k) all));
        j
      end
    in
    expect "records kept" (Journal.length j = k);
    for i = k to n - 1 do
      Journal.append j records.(i)
    done;
    Journal.close j;
    let loaded, dropped = Journal.load path in
    expect "dropped" (dropped = 0);
    expect "original records"
      (List.length loaded = n
      && List.for_all2 Record.equal (Array.to_list records) loaded)
  in
  let checked = ref 0 in
  for k = 0 to n do
    if
      k mod every = 0 || k = n
      || is_begin records.(k)
      || (k > 0 && is_begin records.(k - 1))
    then begin
      incr checked;
      reopen_at k offsets.(k);
      if k < n then reopen_at k ((offsets.(k) + offsets.(k + 1)) / 2)
    end
  done;
  Sys.remove path;
  !checked

let test_reopen_every_boundary () =
  ignore (check_reopen ~every:1 "soak_kill.wal");
  ignore (check_reopen ~every:50 "burst0.wal")

let test_group_commit_flush_rules () =
  let path = temp_journal () in
  let j = Journal.open_file path in
  let started n =
    Record.Action_started
      {
        switch = 0;
        pool = 0;
        attempt = 1;
        at_s = float_of_int n;
        action = Action.Migrate { vm = n; src = 0; dst = 1 };
      }
  in
  Journal.append j (started 0);
  (* a non-terminal record batches: nothing on disk yet *)
  check_int "started buffered, not durable" 0
    (List.length (fst (Journal.load path)));
  (* a terminal record is a commit point: the whole batch flushes
     before append returns *)
  Journal.append j
    (Record.Action_done
       {
         switch = 0;
         pool = 0;
         at_s = 1.;
         action = Action.Migrate { vm = 0; src = 0; dst = 1 };
       });
  check_int "commit point flushes the batch" 2
    (List.length (fst (Journal.load path)));
  Journal.append j (started 1);
  check_int "next started batches again" 2
    (List.length (fst (Journal.load path)));
  Journal.flush j;
  check_int "explicit flush drains the buffer" 3
    (List.length (fst (Journal.load path)));
  Journal.close j;
  (* the record-count threshold (64) also forces a flush *)
  let j2 = Journal.open_file path in
  for n = 2 to 64 do
    Journal.append j2 (started n)
  done;
  check_int "below threshold: buffered" 3
    (List.length (fst (Journal.load path)));
  Journal.append j2 (started 65);
  check_int "threshold reached: flushed" 67
    (List.length (fst (Journal.load path)));
  Journal.close j2;
  Sys.remove path

(* -- randomized codec properties ---------------------------------------------- *)

module Gen = QCheck.Gen

let gen_action =
  let open Gen in
  let vm = int_bound 40 and node = int_bound 7 in
  oneof
    [
      map2 (fun vm dst -> Action.Run { vm; dst }) vm node;
      map2 (fun vm host -> Action.Stop { vm; host }) vm node;
      map3 (fun vm src dst -> Action.Migrate { vm; src; dst }) vm node node;
      map2 (fun vm host -> Action.Suspend { vm; host }) vm node;
      map3 (fun vm src dst -> Action.Resume { vm; src; dst }) vm node node;
      map2 (fun vm host -> Action.Suspend_ram { vm; host }) vm node;
      map2 (fun vm host -> Action.Resume_ram { vm; host }) vm node;
    ]

(* a random config over [nnodes] nodes of which the last may be crashed;
   VM states only reference the alive ones *)
let gen_config =
  let open Gen in
  int_range 2 4 >>= fun nnodes ->
  bool >>= fun crash_last ->
  int_range 1 6 >>= fun nvms ->
  let alive = if crash_last then nnodes - 1 else nnodes in
  let gen_state =
    oneof
      [
        return Configuration.Waiting;
        return Configuration.Terminated;
        map (fun n -> Configuration.Running n) (int_bound (alive - 1));
        map (fun n -> Configuration.Sleeping n) (int_bound (alive - 1));
        map (fun n -> Configuration.Sleeping_ram n) (int_bound (alive - 1));
      ]
  in
  list_size (return nvms) gen_state >>= fun states ->
  return
    (mk_config
       ~crashed:(if crash_last then [ nnodes - 1 ] else [])
       ~nodes:nnodes ~vm_count:nvms states)

let gen_record =
  let open Gen in
  let at_s = map (fun f -> Float.abs f) (float_bound_inclusive 1e6) in
  oneof
    [
      ( gen_config >>= fun source ->
        gen_config >>= fun target ->
        int_range 1 3 >>= fun npools ->
        list_size (return npools) (list_size (int_bound 4) gen_action)
        >>= fun pools ->
        int_range 0 6 >>= fun nd ->
        list_size (return nd) (int_bound 100) >>= fun cpus ->
        let arr = Array.of_list cpus in
        opt (int_bound 1000) >>= fun seed ->
        int_bound 50 >>= fun switch ->
        at_s >>= fun at ->
        return
          (Record.Switch_begin
             {
               switch;
               at_s = at;
               source;
               target;
               plan = Plan.make pools;
               demand =
                 Demand.of_fn ~vm_count:(Array.length arr) (fun vm -> arr.(vm));
               seed;
             }) );
      ( int_bound 50 >>= fun switch ->
        int_bound 5 >>= fun pool ->
        int_range 1 4 >>= fun attempt ->
        at_s >>= fun at ->
        gen_action >>= fun action ->
        return
          (Record.Action_started { switch; pool; attempt; at_s = at; action })
      );
      ( int_bound 50 >>= fun switch ->
        int_bound 5 >>= fun pool ->
        at_s >>= fun at ->
        gen_action >>= fun action ->
        return (Record.Action_done { switch; pool; at_s = at; action }) );
      ( int_bound 50 >>= fun switch ->
        int_bound 5 >>= fun pool ->
        at_s >>= fun at ->
        gen_action >>= fun action ->
        return (Record.Action_failed { switch; pool; at_s = at; action }) );
      ( int_bound 50 >>= fun switch ->
        int_bound 5 >>= fun pool ->
        at_s >>= fun at ->
        return (Record.Pool_committed { switch; pool; at_s = at }) );
      ( int_bound 50 >>= fun switch ->
        at_s >>= fun at ->
        bool >>= fun aborted ->
        return (Record.Switch_end { switch; at_s = at; aborted }) );
      ( int_bound 100 >>= fun vjob ->
        int_range 1 8 >>= fun vms ->
        at_s >>= fun at ->
        oneof
          [
            return Record.Queued;
            return Record.Admitted;
            map
              (fun s -> Record.Rejected s)
              (small_string ~gen:printable);
          ]
        >>= fun disposition ->
        return (Record.Submission { at_s = at; vjob; vms; disposition }) );
      ( int_bound 3 >>= fun from_level ->
        int_bound 3 >>= fun to_level ->
        at_s >>= fun at ->
        small_string ~gen:printable >>= fun reason ->
        return (Record.Ladder { at_s = at; from_level; to_level; reason }) );
    ]

(* Structural shrinker: failing records minimize (fewer pools and
   actions, smaller ids, zeroed timestamps) instead of dumping the full
   random record. Every candidate stays well-formed for the codec. *)
let shrink_record r =
  let open QCheck.Iter in
  let shrink_int = QCheck.Shrink.int in
  match r with
  | Record.Switch_begin b ->
    (QCheck.Shrink.list ~shrink:QCheck.Shrink.list (Plan.pools b.plan)
    >|= fun pools -> Record.Switch_begin { b with plan = Plan.make pools })
    <+> (shrink_int b.switch >|= fun switch ->
         Record.Switch_begin { b with switch })
    <+> (match b.seed with
        | None -> empty
        | Some _ -> return (Record.Switch_begin { b with seed = None }))
    <+> (if b.at_s = 0. then empty
         else return (Record.Switch_begin { b with at_s = 0. }))
  | Record.Action_started a ->
    (shrink_int a.switch >|= fun switch ->
     Record.Action_started { a with switch })
    <+> (shrink_int a.pool >|= fun pool ->
         Record.Action_started { a with pool })
    <+> (shrink_int a.attempt >|= fun n ->
         Record.Action_started { a with attempt = max 1 n })
    <+> (if a.at_s = 0. then empty
         else return (Record.Action_started { a with at_s = 0. }))
  | Record.Action_done a ->
    (shrink_int a.switch >|= fun switch -> Record.Action_done { a with switch })
    <+> (shrink_int a.pool >|= fun pool -> Record.Action_done { a with pool })
    <+> (if a.at_s = 0. then empty
         else return (Record.Action_done { a with at_s = 0. }))
  | Record.Action_failed a ->
    (shrink_int a.switch >|= fun switch ->
     Record.Action_failed { a with switch })
    <+> (shrink_int a.pool >|= fun pool ->
         Record.Action_failed { a with pool })
    <+> (if a.at_s = 0. then empty
         else return (Record.Action_failed { a with at_s = 0. }))
  | Record.Pool_committed p ->
    (shrink_int p.switch >|= fun switch ->
     Record.Pool_committed { p with switch })
    <+> (shrink_int p.pool >|= fun pool ->
         Record.Pool_committed { p with pool })
    <+> (if p.at_s = 0. then empty
         else return (Record.Pool_committed { p with at_s = 0. }))
  | Record.Switch_end e ->
    (shrink_int e.switch >|= fun switch -> Record.Switch_end { e with switch })
    <+> (if e.aborted then return (Record.Switch_end { e with aborted = false })
         else empty)
    <+> (if e.at_s = 0. then empty
         else return (Record.Switch_end { e with at_s = 0. }))
  | Record.Submission s ->
    (shrink_int s.vjob >|= fun vjob -> Record.Submission { s with vjob })
    <+> (shrink_int s.vms >|= fun vms -> Record.Submission { s with vms })
    <+> (match s.disposition with
        | Record.Queued -> empty
        | Record.Admitted | Record.Rejected _ ->
          return (Record.Submission { s with disposition = Record.Queued }))
    <+> (if s.at_s = 0. then empty
         else return (Record.Submission { s with at_s = 0. }))
  | Record.Ladder l ->
    (shrink_int l.from_level >|= fun from_level ->
     Record.Ladder { l with from_level })
    <+> (shrink_int l.to_level >|= fun to_level ->
         Record.Ladder { l with to_level })
    <+> (if l.reason = "" then empty
         else return (Record.Ladder { l with reason = "" }))
    <+> (if l.at_s = 0. then empty
         else return (Record.Ladder { l with at_s = 0. }))

let arb_record =
  QCheck.make
    ~print:(Format.asprintf "%a" Record.pp)
    ~shrink:shrink_record gen_record

let prop_shrunk_records_still_round_trip =
  QCheck.Test.make ~name:"every shrink candidate still round-trips" ~count:60
    arb_record (fun r ->
      let ok = ref true in
      shrink_record r (fun r' ->
          match
            Record.read_frame (Record.codec ())
              (Record.to_frame (Record.codec ()) r')
              ~pos:0
          with
          | Some (Record.Frame (r'', _)) -> ok := !ok && Record.equal r' r''
          | _ -> ok := false);
      !ok)

let prop_binary_round_trip =
  QCheck.Test.make ~name:"binary codec round-trips any record" ~count:300
    arb_record (fun r ->
      match
        Record.read_frame (Record.codec ())
          (Record.to_frame (Record.codec ()) r)
          ~pos:0
      with
      | Some (Record.Frame (r', _)) -> Record.equal r r'
      | _ -> false)

let prop_sequence_with_torn_suffix =
  QCheck.Test.make
    ~name:"frame sequence + garbage suffix decodes to the exact prefix"
    ~count:100
    QCheck.(
      make
        ~shrink:(Shrink.pair (Shrink.list ~shrink:shrink_record) Shrink.string)
        Gen.(
          pair (list_size (int_range 0 6) gen_record)
            (small_string ~gen:printable)))
    (fun (records, garbage) ->
      let b = Buffer.create 1024 in
      let codec = Record.codec () in
      List.iter (Record.write_frame codec b) records;
      (* prefix the garbage so it can never fake a frame magic *)
      if garbage <> "" then Buffer.add_string b ("X" ^ garbage);
      let path = temp_journal () in
      let oc = open_out_bin path in
      Buffer.output_buffer oc b;
      close_out oc;
      let loaded, dropped = Journal.load path in
      Sys.remove path;
      List.length loaded = List.length records
      && List.for_all2 Record.equal records loaded
      && dropped = (if garbage = "" then 0 else 1))

(* -- randomized stream codec ----------------------------------------------------- *)

(* One switch of a random stream, written from the previous switch's
   source and demand. *)
type step =
  | Same  (** the previous source and demand again: empty diffs *)
  | Rebuilt  (** equal tables and states, in fresh arrays *)
  | States of (int * int) list  (** source edits: (VM, state code) *)
  | Crash of int  (** node k crashes or comes back: a new node table *)
  | Nodes of int  (** a node table of this many nodes *)
  | Vms of int  (** a VM table of this many VMs *)
  | Demands of (int * int) list  (** demand edits: (VM, CPU) *)
  | Demand_length of int  (** a demand of this many VMs *)
  | Full_target  (** a target over tables other than the source's *)

let pp_step ppf =
  let edits = Fmt.(list ~sep:comma (pair ~sep:(any ":") int int)) in
  function
  | Same -> Fmt.string ppf "same"
  | Rebuilt -> Fmt.string ppf "rebuilt"
  | States e -> Fmt.pf ppf "states[%a]" edits e
  | Crash k -> Fmt.pf ppf "crash %d" k
  | Nodes n -> Fmt.pf ppf "nodes %d" n
  | Vms n -> Fmt.pf ppf "vms %d" n
  | Demands e -> Fmt.pf ppf "demands[%a]" edits e
  | Demand_length n -> Fmt.pf ppf "demand length %d" n
  | Full_target -> Fmt.string ppf "full target"

let stream_node_count = 4

let stream_nodes ~count crashed =
  Array.map
    (fun n -> if List.mem (Node.id n) crashed then Node.crashed n else n)
    (testbed_nodes count)

let stream_vms n =
  Array.init n (fun i ->
      Vm.make ~id:i ~name:(Printf.sprintf "vm%d" i)
        ~memory_mb:(512 + (256 * (i mod 3))))

let state_of_code c =
  let node = c / 5 mod stream_node_count in
  match c mod 5 with
  | 0 -> Configuration.Waiting
  | 1 -> Configuration.Terminated
  | 2 -> Configuration.Running node
  | 3 -> Configuration.Sleeping node
  | _ -> Configuration.Sleeping_ram node

(* Each step's [Switch_begin] and [Switch_end]. The target moves two
   VMs from the source, except after [Same] (an empty target diff) and
   [Full_target]. *)
let stream_of_steps ~vm_count steps =
  let crashed = ref [] and node_count = ref stream_node_count in
  let nodes () = stream_nodes ~count:!node_count !crashed in
  let source =
    ref (Configuration.make ~nodes:(nodes ()) ~vms:(stream_vms vm_count))
  in
  let demand = ref (Demand.of_fn ~vm_count (fun vm -> vm mod 7 * 10)) in
  let with_vm_count c m =
    Configuration.with_states
      (Configuration.make ~nodes:(nodes ()) ~vms:(stream_vms m))
      (Array.init m (fun vm ->
           if vm < Configuration.vm_count c then Configuration.state c vm
           else Configuration.Waiting))
  in
  List.concat
    (List.mapi
       (fun switch step ->
         let n = Configuration.vm_count !source in
         (match step with
         | Same | Full_target -> ()
         | Rebuilt -> source := with_vm_count !source n
         | States edits ->
           source :=
             Configuration.edit !source (fun e ->
                 List.iter
                   (fun (vm, c) -> Configuration.write e (vm mod n) (state_of_code c))
                   edits)
         | Crash k ->
           crashed :=
             if List.mem k !crashed then List.filter (( <> ) k) !crashed
             else k :: !crashed;
           source := Configuration.with_nodes !source (nodes ())
         | Nodes m ->
           node_count := m;
           crashed := List.filter (fun k -> k < m) !crashed;
           source := with_vm_count !source n
         | Vms m -> source := with_vm_count !source m
         | Demands edits ->
           let len = Demand.vm_count !demand in
           if len > 0 then
             demand :=
               Demand.edit !demand (fun e ->
                   List.iter (fun (vm, cpu) -> Demand.write e (vm mod len) cpu) edits)
         | Demand_length m -> demand := Demand.of_fn ~vm_count:m (fun vm -> vm * 37 mod 500));
         let n = Configuration.vm_count !source in
         let target =
           match step with
           | Same -> !source
           | Full_target -> with_vm_count !source (n + 1)
           | _ ->
             Configuration.edit !source (fun e ->
                 Configuration.write e 0 (Configuration.Running 1);
                 Configuration.write e (n - 1) Configuration.Terminated)
         in
         [
           Record.Switch_begin
             {
               switch;
               at_s = float_of_int switch;
               source = !source;
               target;
               plan = Plan.make [ [ Action.Run { vm = 0; dst = 1 } ] ];
               demand = !demand;
               seed = None;
             };
           Record.Switch_end { switch; at_s = float_of_int switch +. 0.5; aborted = false };
         ])
       steps)

let gen_step =
  let open Gen in
  let edits bound = list_size (int_bound 6) (pair (int_bound 200) (int_bound bound)) in
  frequency
    [
      (2, return Same);
      (1, return Rebuilt);
      (4, map (fun e -> States e) (edits 40));
      (1, map (fun k -> Crash k) (int_bound (stream_node_count - 1)));
      (1, map (fun m -> Nodes m) (int_range 2 6));
      (1, map (fun m -> Vms m) (int_range 1 150));
      (3, map (fun e -> Demands e) (edits 500));
      (1, map (fun m -> Demand_length m) (int_range 0 150));
      (1, return Full_target);
    ]

let rec add_test_varint b v =
  if v land lnot 0x7f = 0 then Buffer.add_char b (Char.chr v)
  else begin
    Buffer.add_char b (Char.chr (v land 0x7f lor 0x80));
    add_test_varint b (v lsr 7)
  end

(* A [Switch_begin] payload that references the stream's tables and
   demand and writes one diff entry at [index] in the diff [where]
   names; the other diffs are empty. *)
let crafted_begin ~where index =
  let b = Buffer.create 32 in
  let byte c = Buffer.add_char b (Char.chr c) and varint = add_test_varint b in
  let diff w = if w = where then (varint 1; varint index; byte 0) else varint 0 in
  byte 1;
  varint 99;
  Buffer.add_string b (String.make 8 '\000');
  byte 0;  (* the codec's node table *)
  byte 0;  (* the codec's VM table: the source states are a diff *)
  diff `Source;
  byte 0;  (* the target is a diff against the source *)
  diff `Target;
  varint 0;  (* no pools *)
  byte 0;  (* the demand is a diff against the codec's *)
  diff `Demand;
  byte 0;  (* no seed *)
  Buffer.contents b

let prop_stream_round_trip =
  QCheck.Test.make ~name:"switch streams round-trip; damaged diffs are torn"
    ~count:200
    QCheck.(
      make
        ~print:(fun (vm_count, steps, (frame, pos, byte)) ->
          Fmt.str "%d VMs, steps [%a], byte %d of frame %d set to %d" vm_count
            Fmt.(list ~sep:semi pp_step)
            steps pos frame byte)
        ~shrink:(fun (n, steps, damage) ->
          Iter.map (fun steps -> (n, steps, damage)) (Shrink.list steps))
        Gen.(
          triple (int_range 1 150)
            (list_size (int_range 1 12) gen_step)
            (triple (int_bound 1000) (int_bound 1000) (int_bound 255))))
    (fun (vm_count, steps, (frame, pos, byte)) ->
      steps = []
      ||
      let records = stream_of_steps ~vm_count steps in
      let frames = stream_frames records in
      (* frame by frame through one reader codec *)
      let reader = Record.codec () in
      List.iter2
        (fun r f ->
          match Record.read_frame reader f ~pos:0 with
          | Some (Record.Frame (r', next)) when next = String.length f ->
            if not (same_record r r') then
              QCheck.Test.fail_reportf "decoded %a differs" Record.pp r
          | _ -> QCheck.Test.fail_reportf "%a did not decode" Record.pp r)
        records frames;
      (* a diff index out of range is damage, whichever diff holds it *)
      let last_begin =
        List.fold_left
          (fun acc r ->
            match r with
            | Record.Switch_begin { source; demand; _ } -> Some (source, demand)
            | _ -> acc)
          None records
      in
      (match last_begin with
      | None -> ()
      | Some (source, demand) ->
        let vms = Configuration.vm_count source in
        List.iter
          (fun (where, index) ->
            match
              Record.read_frame reader (craft_frame (crafted_begin ~where index)) ~pos:0
            with
            | Some (Record.Torn _) -> ()
            | _ -> QCheck.Test.fail_reportf "diff index %d not torn" index)
          [
            (`Source, vms); (`Source, -1); (`Target, vms);
            (`Demand, Demand.vm_count demand); (`Demand, -1);
          ]);
      (* any payload byte changed under a valid checksum decodes, without
         raising, to a journal that keeps every frame before it *)
      let i = frame mod List.length frames in
      let f = List.nth frames i in
      let payload =
        Bytes.of_string
          (String.sub f Record.header_size (String.length f - Record.header_size))
      in
      Bytes.set payload (pos mod Bytes.length payload) (Char.chr byte);
      let damaged =
        String.concat ""
          (List.mapi
             (fun j f -> if j = i then craft_frame (Bytes.to_string payload) else f)
             frames)
      in
      let loaded, _ = Journal.decode damaged in
      List.length loaded >= i
      && List.for_all2 Record.equal
           (List.filteri (fun j _ -> j < i) loaded)
           (List.filteri (fun j _ -> j < i) records))

(* -- replay ------------------------------------------------------------------- *)

let source2 =
  mk_config ~nodes:3 ~vm_count:2
    Configuration.[ Running 0; Running 0 ]

let target2 =
  mk_config ~nodes:3 ~vm_count:2
    Configuration.[ Running 1; Running 1 ]

let mig vm = Action.Migrate { vm; src = 0; dst = 1 }
let plan2 = Plan.make [ [ mig 0; mig 1 ] ]
let demand2 = Demand.uniform ~vm_count:2 40

let begin2 ?(switch = 0) () =
  Record.Switch_begin
    {
      switch;
      at_s = 1.;
      source = source2;
      target = target2;
      plan = plan2;
      demand = demand2;
      seed = None;
    }

let test_replay_empty () =
  check_bool "no begin, no state" true (Recovery.replay [] = None);
  check_bool "stray records alone yield no state" true
    (Recovery.replay
       [ Record.Pool_committed { switch = 0; pool = 0; at_s = 1. } ]
    = None)

let test_replay_mid_switch () =
  let records =
    [
      begin2 ();
      Record.Action_started
        { switch = 0; pool = 0; attempt = 1; at_s = 2.; action = mig 0 };
      Record.Action_done { switch = 0; pool = 0; at_s = 3.; action = mig 0 };
      Record.Action_started
        { switch = 0; pool = 0; attempt = 1; at_s = 2.; action = mig 1 };
    ]
  in
  match Recovery.replay records with
  | None -> Alcotest.fail "expected a switch state"
  | Some st ->
    check_int "switch id" 0 st.Recovery.switch;
    check_bool "not ended" true (st.Recovery.end_at = None);
    check_bool "vm0 done" true (Recovery.done_actions st = [ mig 0 ]);
    check_bool "vm1 in flight" true (Recovery.in_flight st = [ mig 1 ]);
    check_int "no failures" 0 (List.length (Recovery.failed_actions st));
    (* the journal-projected config has vm0 moved, vm1 untouched *)
    let proj = Recovery.projected_config st in
    check_bool "vm0 projected onto N1" true
      (Configuration.state proj 0 = Configuration.Running 1);
    check_bool "vm1 still on N0" true
      (Configuration.state proj 1 = Configuration.Running 0)

let test_replay_complete_switch () =
  let records =
    [
      begin2 ();
      Record.Action_started
        { switch = 0; pool = 0; attempt = 1; at_s = 2.; action = mig 0 };
      Record.Action_failed { switch = 0; pool = 0; at_s = 3.; action = mig 0 };
      Record.Action_started
        { switch = 0; pool = 0; attempt = 1; at_s = 2.; action = mig 1 };
      Record.Action_done { switch = 0; pool = 0; at_s = 4.; action = mig 1 };
      Record.Pool_committed { switch = 0; pool = 0; at_s = 4. };
      Record.Switch_end { switch = 0; at_s = 5.; aborted = true };
    ]
  in
  match Recovery.replay records with
  | None -> Alcotest.fail "expected a switch state"
  | Some st ->
    check_bool "ended" true (st.Recovery.end_at = Some 5.);
    check_bool "aborted" true st.Recovery.aborted;
    check_int "failed recorded" 1 (List.length (Recovery.failed_actions st));
    check_int "nothing in flight" 0 (List.length (Recovery.in_flight st));
    Alcotest.(check (list int))
      "pool committed" [ 0 ]
      (List.map fst st.Recovery.commits)

let test_replay_last_begin_wins () =
  let records =
    [
      begin2 ();
      Record.Action_done { switch = 0; pool = 0; at_s = 3.; action = mig 0 };
      Record.Switch_end { switch = 0; at_s = 4.; aborted = false };
      begin2 ~switch:1 ();
      Record.Action_done { switch = 1; pool = 0; at_s = 6.; action = mig 1 };
    ]
  in
  (match Recovery.replay records with
  | None -> Alcotest.fail "expected a switch state"
  | Some st ->
    check_int "last switch" 1 st.Recovery.switch;
    check_bool "fresh state: only switch 1's record" true
      (Recovery.done_actions st = [ mig 1 ]));
  check_int "next id past the highest" 2
    (Journal.next_switch (Journal.of_records records));
  check_int "empty journal starts at 0" 0 (Journal.next_switch (Journal.mem ()))

(* -- reconciliation ----------------------------------------------------------- *)

let state_mid_switch () =
  match
    Recovery.replay
      [
        begin2 ();
        Record.Action_started
          { switch = 0; pool = 0; attempt = 1; at_s = 2.; action = mig 0 };
        Record.Action_done { switch = 0; pool = 0; at_s = 3.; action = mig 0 };
      ]
  with
  | Some st -> st
  | None -> Alcotest.fail "replay lost the switch"

let test_reconcile_pending_and_done () =
  let state = state_mid_switch () in
  (* the observation agrees with the journal: vm0 moved, vm1 not yet *)
  let observed =
    mk_config ~nodes:3 ~vm_count:2
      Configuration.[ Running 1; Running 0 ]
  in
  let r = Recovery.reconcile ~state ~observed () in
  Alcotest.(check (list int)) "vm0 done" [ 0 ] r.Recovery.done_vms;
  Alcotest.(check (list int)) "vm1 pending" [ 1 ] r.Recovery.pending_vms;
  check_bool "no frozen VMs" true (r.Recovery.frozen_vms = []);
  check_bool "clean residue" true (Repair.residue_ok r.Recovery.residue);
  match r.Recovery.plan with
  | None -> Alcotest.fail "clean reconciliation must rebuild a plan"
  | Some p ->
    Alcotest.(check (list int))
      "resume re-runs exactly the unfinished migration" [ 1 ]
      (List.map Action.vm (Plan.actions p))

let test_reconcile_all_done () =
  let state = state_mid_switch () in
  (* both actions' effects are visible: the crash hit after the work *)
  let observed = target2 in
  let r = Recovery.reconcile ~state ~observed () in
  Alcotest.(check (list int)) "both done" [ 0; 1 ] r.Recovery.done_vms;
  check_bool "nothing to re-run" true
    (match r.Recovery.plan with Some p -> Plan.is_empty p | None -> false)

let test_reconcile_divergence_freezes () =
  let state = state_mid_switch () in
  (* vm1 is observed on a node no chain state mentions: diverged *)
  let observed =
    mk_config ~nodes:3 ~vm_count:2
      Configuration.[ Running 1; Running 2 ]
  in
  let r = Recovery.reconcile ~state ~observed () in
  Alcotest.(check (list int)) "vm1 frozen" [ 1 ] r.Recovery.frozen_vms;
  check_bool "divergence is residue" false
    (Repair.residue_ok r.Recovery.residue);
  Alcotest.(check (list int))
    "frozen VM lands in residue.failed_vms" [ 1 ]
    r.Recovery.residue.Repair.failed_vms;
  check_bool "no resume plan on residue" true (r.Recovery.plan = None);
  check_bool "salvaged target pins the frozen VM where observed" true
    (Configuration.state r.Recovery.target 1 = Configuration.Running 2)

let test_reconcile_terminated_is_benign () =
  let state = state_mid_switch () in
  (* vm1 terminated while the controller was down: off-chain, so frozen,
     but a finished vjob is not a failure *)
  let observed =
    mk_config ~nodes:3 ~vm_count:2
      Configuration.[ Running 1; Terminated ]
  in
  let r = Recovery.reconcile ~state ~observed () in
  Alcotest.(check (list int)) "vm1 frozen" [ 1 ] r.Recovery.frozen_vms;
  check_bool "benign: residue stays clean" true
    (Repair.residue_ok r.Recovery.residue);
  check_bool "resume plan exists" true (r.Recovery.plan <> None);
  check_bool "target keeps vm1 terminated" true
    (Configuration.state r.Recovery.target 1 = Configuration.Terminated)

let test_reconcile_terminated_by_plan_is_done () =
  (* when the plan itself stops the VM, observing it Terminated is
     plain progress — Done, not frozen *)
  let state =
    match
      Recovery.replay
        [
          Record.Switch_begin
            {
              switch = 0;
              at_s = 1.;
              source = source2;
              target =
                mk_config ~nodes:3 ~vm_count:2
                  Configuration.[ Running 1; Terminated ];
              plan =
                Plan.make [ [ mig 0; Action.Stop { vm = 1; host = 0 } ] ];
              demand = demand2;
              seed = None;
            };
        ]
    with
    | Some st -> st
    | None -> Alcotest.fail "replay lost the switch"
  in
  let observed =
    mk_config ~nodes:3 ~vm_count:2 Configuration.[ Running 0; Terminated ]
  in
  let r = Recovery.reconcile ~state ~observed () in
  Alcotest.(check (list int)) "stopped VM is done" [ 1 ] r.Recovery.done_vms;
  check_bool "nothing frozen" true (r.Recovery.frozen_vms = []);
  check_bool "clean residue" true (Repair.residue_ok r.Recovery.residue);
  (match r.Recovery.plan with
  | None -> Alcotest.fail "clean reconciliation must rebuild a plan"
  | Some p ->
    Alcotest.(check (list int))
      "only the unfinished migration re-runs" [ 0 ]
      (List.map Action.vm (Plan.actions p)))

let test_reconcile_lost_node_is_residue () =
  let state = state_mid_switch () in
  (* the target still needs node 1 for vm1, but node 1 crashed while
     the controller was down *)
  let observed =
    mk_config ~crashed:[ 1 ] ~nodes:3 ~vm_count:2
      Configuration.[ Running 1; Running 0 ]
  in
  let r = Recovery.reconcile ~state ~observed () in
  Alcotest.(check (list int))
    "crashed node lands in residue.lost_nodes" [ 1 ]
    r.Recovery.residue.Repair.lost_nodes;
  check_bool "lost node is residue" false
    (Repair.residue_ok r.Recovery.residue);
  check_bool "no resume plan over a lost node" true (r.Recovery.plan = None)

let test_reconcile_empty_plan_resume () =
  (* a switch that had nothing to do: begin record only, empty plan,
     target = source; resume must be a clean no-op *)
  let state =
    match
      Recovery.replay
        [
          Record.Switch_begin
            {
              switch = 0;
              at_s = 1.;
              source = source2;
              target = source2;
              plan = Plan.empty;
              demand = demand2;
              seed = None;
            };
        ]
    with
    | Some st -> st
    | None -> Alcotest.fail "replay lost the switch"
  in
  let r = Recovery.reconcile ~state ~observed:source2 () in
  Alcotest.(check (list int)) "every VM already done" [ 0; 1 ] r.Recovery.done_vms;
  check_bool "nothing pending" true (r.Recovery.pending_vms = []);
  check_bool "nothing frozen" true (r.Recovery.frozen_vms = []);
  check_bool "clean residue" true (Repair.residue_ok r.Recovery.residue);
  check_bool "resume plan is empty" true
    (match r.Recovery.plan with Some p -> Plan.is_empty p | None -> false)

let test_reconcile_journaled_failure_is_residue () =
  let state =
    match
      Recovery.replay
        [
          begin2 ();
          Record.Action_started
            { switch = 0; pool = 0; attempt = 1; at_s = 2.; action = mig 0 };
          Record.Action_failed
            { switch = 0; pool = 0; at_s = 3.; action = mig 0 };
        ]
    with
    | Some st -> st
    | None -> Alcotest.fail "replay lost the switch"
  in
  let r = Recovery.reconcile ~state ~observed:source2 () in
  check_bool "journaled failure reaches the residue" true
    (List.mem 0 r.Recovery.residue.Repair.failed_vms)

let test_reconcile_rejects_shape_mismatch () =
  let state = state_mid_switch () in
  let observed = mk_config ~nodes:3 ~vm_count:1 Configuration.[ Running 0 ] in
  check_bool "vm count mismatch" true
    (match Recovery.reconcile ~state ~observed () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* -- run ---------------------------------------------------------------------- *)

let () =
  match Array.to_list Sys.argv with
  | _ :: "reopen" :: every :: paths ->
    List.iter
      (fun path ->
        let checked = check_reopen ~every:(int_of_string every) path in
        Printf.printf "%s: reopened at %d record boundaries\n%!" path checked)
      paths
  | _ ->
      Alcotest.run "entropy_journal"
        [
          ( "record",
            [
              Alcotest.test_case "accessors" `Quick test_record_accessors;
              Alcotest.test_case "checksum reference" `Quick
                test_checksum_reference;
            ] );
          ( "backends",
            [
              Alcotest.test_case "mem" `Quick test_mem_backend;
              Alcotest.test_case "of_records" `Quick test_of_records;
              Alcotest.test_case "file" `Quick test_file_backend;
            ] );
          ( "binary",
            [
              Alcotest.test_case "round trip" `Quick test_binary_round_trip;
              Alcotest.test_case "crc corruption at every offset" `Quick
                test_binary_crc_every_offset;
              Alcotest.test_case "torn tail cuts" `Quick test_binary_torn_tail_cuts;
              Alcotest.test_case "unknown record tag skipped" `Quick
                test_binary_unknown_tag_skipped;
              Alcotest.test_case "reopen after torn tail" `Quick
                test_reopen_after_torn_tail;
              Alcotest.test_case "next switch after reopen" `Quick
                test_next_switch_after_reopen;
              Alcotest.test_case "json-lines journal refused" `Quick
                test_json_lines_refused;
              Alcotest.test_case "older format version refused" `Quick
                test_older_version_refused;
              Alcotest.test_case "open keeps unknown-tag frames" `Quick
                test_open_keeps_unknown_tag;
              Alcotest.test_case "group commit flush rules" `Quick
                test_group_commit_flush_rules;
              QCheck_alcotest.to_alcotest prop_binary_round_trip;
              QCheck_alcotest.to_alcotest prop_sequence_with_torn_suffix;
              QCheck_alcotest.to_alcotest prop_shrunk_records_still_round_trip;
            ] );
          ( "codec",
            [
              Alcotest.test_case "stream round trip" `Quick test_codec_round_trip;
              Alcotest.test_case "reference without table" `Quick
                test_codec_reference_without_table;
              Alcotest.test_case "cut at every byte" `Quick
                test_codec_cut_every_byte;
              Alcotest.test_case "burst0 journal at most 230 kB" `Quick
                test_burst0_journal_size;
              Alcotest.test_case "reopen at record boundaries" `Quick
                test_reopen_every_boundary;
              QCheck_alcotest.to_alcotest prop_stream_round_trip;
            ] );
          ( "replay",
            [
              Alcotest.test_case "empty" `Quick test_replay_empty;
              Alcotest.test_case "mid switch" `Quick test_replay_mid_switch;
              Alcotest.test_case "complete switch" `Quick
                test_replay_complete_switch;
              Alcotest.test_case "last begin wins" `Quick
                test_replay_last_begin_wins;
            ] );
          ( "reconcile",
            [
              Alcotest.test_case "pending and done" `Quick
                test_reconcile_pending_and_done;
              Alcotest.test_case "all done" `Quick test_reconcile_all_done;
              Alcotest.test_case "divergence freezes" `Quick
                test_reconcile_divergence_freezes;
              Alcotest.test_case "terminated is benign" `Quick
                test_reconcile_terminated_is_benign;
              Alcotest.test_case "terminated by plan is done" `Quick
                test_reconcile_terminated_by_plan_is_done;
              Alcotest.test_case "lost node is residue" `Quick
                test_reconcile_lost_node_is_residue;
              Alcotest.test_case "empty plan resume" `Quick
                test_reconcile_empty_plan_resume;
              Alcotest.test_case "journaled failure is residue" `Quick
                test_reconcile_journaled_failure_is_residue;
              Alcotest.test_case "shape mismatch rejected" `Quick
                test_reconcile_rejects_shape_mismatch;
            ] );
        ]

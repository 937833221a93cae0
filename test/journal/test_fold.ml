(* The one fold of switch records ([Recovery.switches], read by
   [Recovery.replay] and, as [Timeline.of_records], by the flight
   recorder) against the two folds it replaced. Each reference below is
   the former implementation, kept here verbatim in behaviour: crash
   replay's list fold (the last [Switch_begin] wins, stray records and
   records after [Switch_end] are dropped, done actions applied in
   journal order) and the flight recorder's per-slot builders, which
   also gave each slot its same-VM predecessor and duration estimate
   (the critical-path view derives both now). At every record cut of a
   journal — the prefix a crash could leave — the new readings must
   equal the old.

   [dune runtest] runs it on the committed chaos journals and on every
   25th cut of the seed-0 burst-daemon journal;
   [test_fold.exe cuts N FILE...] checks every N-th cut of the given
   journals and exits non-zero on the first difference.

   The fold finds an action record's slot through a per-switch index by
   VM; a QCheck property holds it to the former match, which ranked
   every slot of the switch, on random streams built to collide
   (identical actions in several pools, terminals with and without a
   start, records no slot holds, unknown switch ids). Last, the flight
   recorder's readings of the seed-0 burst journal, as
   [entropyctl explain] writes them (JSON, text report, Gantt trace),
   are held to their lines of test/daemon/burst_explain.md5,
   burst_explain_text.md5 and burst_gantt.md5. *)

open Entropy_core
module Record = Entropy_journal.Record
module Journal = Entropy_journal.Journal
module Recovery = Entropy_journal.Recovery
module Timeline = Entropy_flight.Timeline

(* -- former crash replay ---------------------------------------------------- *)

module Former_replay = struct
  type state = {
    switch : int;
    source : Configuration.t;
    seed : int option;
    done_actions : (int * Action.t) list;
    failed_actions : (int * Action.t) list;
    in_flight : (int * Action.t) list;
    committed_pools : int list;
    ended : bool;
    aborted : bool;
  }

  let drop_in_flight st action =
    List.filter (fun (_, a) -> not (Action.equal a action)) st.in_flight

  let step acc record =
    match (record, acc) with
    | Record.Switch_begin { switch; source; seed; _ }, _ ->
      Some
        {
          switch;
          source;
          seed;
          done_actions = [];
          failed_actions = [];
          in_flight = [];
          committed_pools = [];
          ended = false;
          aborted = false;
        }
    | (Record.Submission _ | Record.Ladder _), _ -> acc
    | _, None -> None
    | r, Some st when Record.switch r <> st.switch || st.ended -> acc
    | Record.Action_started { pool; action; _ }, Some st ->
      Some { st with in_flight = drop_in_flight st action @ [ (pool, action) ] }
    | Record.Action_done { pool; action; _ }, Some st ->
      Some
        {
          st with
          done_actions = st.done_actions @ [ (pool, action) ];
          in_flight = drop_in_flight st action;
        }
    | Record.Action_failed { pool; action; _ }, Some st ->
      Some
        {
          st with
          failed_actions = st.failed_actions @ [ (pool, action) ];
          in_flight = drop_in_flight st action;
        }
    | Record.Pool_committed { pool; _ }, Some st ->
      if List.mem pool st.committed_pools then acc
      else Some { st with committed_pools = st.committed_pools @ [ pool ] }
    | Record.Switch_end { aborted; _ }, Some st ->
      Some { st with ended = true; aborted }

  let replay records = List.fold_left step None records

  let projected_config st =
    List.fold_left
      (fun config (_, action) ->
        try Action.apply config action with Action.Invalid _ -> config)
      st.source st.done_actions
end

(* -- former timeline builder ------------------------------------------------ *)

module Former_timeline = struct
  (* a slot with its plan index, same-VM predecessor and estimate *)
  type slot_reading = {
    index : int;
    action : Action.t;
    record_pool : int;
    prereq : int option;
    attempts : float list;
    terminal : Recovery.terminal option;
    est_s : float;
  }

  type reading = {
    switch : int;
    begun_at : float;
    source : Configuration.t;
    plan : Plan.t;
    actions : slot_reading array;
    commits : (int * float) list;
    end_at : float option;
    aborted : bool;
    last_event : float;
    unmatched : int;
  }

  (* The same reading of the fold's switch: its slots, with the
     predecessor and estimate the critical-path view derives. *)
  let of_switch (sw : Recovery.switch) =
    let prereq = Continuous.vm_prerequisites sw.plan in
    {
      switch = sw.switch;
      begun_at = sw.begun_at;
      source = sw.source;
      plan = sw.plan;
      actions =
        Array.mapi
          (fun index (s : Recovery.slot) ->
            {
              index;
              action = s.action;
              record_pool = s.record_pool;
              prereq = prereq.(index);
              attempts = s.attempts;
              terminal = s.terminal;
              est_s = Schedule.action_duration sw.source s.action;
            })
          sw.slots;
      commits = sw.commits;
      end_at = sw.end_at;
      aborted = sw.aborted;
      last_event = sw.last_event;
      unmatched = sw.unmatched;
    }

  type action_builder = {
    mutable b_record_pool : int option;
    mutable b_attempts : float list; (* reverse order *)
    mutable b_terminal : Recovery.terminal option;
  }

  type switch_builder = {
    sb_switch : int;
    sb_begun : float;
    sb_source : Configuration.t;
    sb_plan : Plan.t;
    sb_actions : Action.t array;
    sb_pools : int array;
    sb_state : action_builder array;
    mutable sb_commits : (int * float) list; (* reverse order *)
    mutable sb_end : float option;
    mutable sb_aborted : bool;
    mutable sb_last : float;
    mutable sb_unmatched : int;
  }

  let make_builder ~switch ~at_s ~source ~plan =
    let flat =
      List.concat
        (List.mapi
           (fun p actions -> List.map (fun a -> (p, a)) actions)
           (Plan.pools plan))
    in
    {
      sb_switch = switch;
      sb_begun = at_s;
      sb_source = source;
      sb_plan = plan;
      sb_actions = Array.of_list (List.map snd flat);
      sb_pools = Array.of_list (List.map fst flat);
      sb_state =
        Array.init (List.length flat) (fun _ ->
            { b_record_pool = None; b_attempts = []; b_terminal = None });
      sb_commits = [];
      sb_end = None;
      sb_aborted = false;
      sb_last = at_s;
      sb_unmatched = 0;
    }

  let find_slot sb ~pool ~action ~for_terminal =
    let n = Array.length sb.sb_actions in
    let best = ref (-1) in
    let best_rank = ref min_int in
    for i = 0 to n - 1 do
      if Action.equal sb.sb_actions.(i) action then begin
        let st = sb.sb_state.(i) in
        let rank =
          (if st.b_terminal = None then 4 else 0)
          + (if sb.sb_pools.(i) = pool then 2 else 0)
          + if for_terminal = (st.b_attempts <> []) then 1 else 0
        in
        if rank > !best_rank then begin
          best_rank := rank;
          best := i
        end
      end
    done;
    if !best < 0 then None else Some !best

  let touch sb at_s = if at_s > sb.sb_last then sb.sb_last <- at_s

  let on_started sb ~pool ~at_s ~action =
    touch sb at_s;
    match find_slot sb ~pool ~action ~for_terminal:false with
    | None -> sb.sb_unmatched <- sb.sb_unmatched + 1
    | Some i ->
      let st = sb.sb_state.(i) in
      st.b_record_pool <- Some pool;
      st.b_attempts <- at_s :: st.b_attempts

  let on_terminal sb ~pool ~at_s ~action outcome =
    touch sb at_s;
    match find_slot sb ~pool ~action ~for_terminal:true with
    | None -> sb.sb_unmatched <- sb.sb_unmatched + 1
    | Some i ->
      let st = sb.sb_state.(i) in
      st.b_record_pool <- Some pool;
      st.b_terminal <- Some (outcome at_s)

  let freeze sb =
    let prereq = Continuous.vm_prerequisites sb.sb_plan in
    let actions =
      Array.init (Array.length sb.sb_actions) (fun i ->
          let st = sb.sb_state.(i) in
          {
            index = i;
            action = sb.sb_actions.(i);
            record_pool =
              (match st.b_record_pool with
              | Some p -> p
              | None -> sb.sb_pools.(i));
            prereq = prereq.(i);
            attempts = List.rev st.b_attempts;
            terminal = st.b_terminal;
            est_s = Schedule.action_duration sb.sb_source sb.sb_actions.(i);
          })
    in
    {
      switch = sb.sb_switch;
      begun_at = sb.sb_begun;
      source = sb.sb_source;
      plan = sb.sb_plan;
      actions;
      commits = List.rev sb.sb_commits;
      end_at = sb.sb_end;
      aborted = sb.sb_aborted;
      last_event = sb.sb_last;
      unmatched = sb.sb_unmatched;
    }

  let of_records records =
    let tbl = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun r ->
        match r with
        | Record.Switch_begin { switch; at_s; source; plan; _ } ->
          let sb = make_builder ~switch ~at_s ~source ~plan in
          Hashtbl.replace tbl switch sb;
          order := sb :: !order
        | Record.Action_started { switch; pool; at_s; action; _ } ->
          Option.iter
            (fun sb -> on_started sb ~pool ~at_s ~action)
            (Hashtbl.find_opt tbl switch)
        | Record.Action_done { switch; pool; at_s; action } ->
          Option.iter
            (fun sb ->
              on_terminal sb ~pool ~at_s ~action (fun t -> Recovery.Done t))
            (Hashtbl.find_opt tbl switch)
        | Record.Action_failed { switch; pool; at_s; action } ->
          Option.iter
            (fun sb ->
              on_terminal sb ~pool ~at_s ~action (fun t -> Recovery.Failed t))
            (Hashtbl.find_opt tbl switch)
        | Record.Pool_committed { switch; pool; at_s } ->
          Option.iter
            (fun sb ->
              touch sb at_s;
              sb.sb_commits <- (pool, at_s) :: sb.sb_commits)
            (Hashtbl.find_opt tbl switch)
        | Record.Switch_end { switch; at_s; aborted } ->
          Option.iter
            (fun sb ->
              touch sb at_s;
              sb.sb_end <- Some at_s;
              sb.sb_aborted <- aborted)
            (Hashtbl.find_opt tbl switch)
        | Record.Submission _ | Record.Ladder _ -> ())
      records;
    List.rev_map freeze !order
end

(* -- former slot match ------------------------------------------------------ *)

(* [Recovery.switches] as it was before its slot index: each action
   record ranks every slot of its switch, the first best rank wins. *)
module Former_switches = struct
  let opened ~switch ~at_s ~source ~target ~plan ~demand ~seed =
    let slot p action =
      {
        Recovery.action;
        plan_pool = p;
        record_pool = p;
        attempts = [];
        terminal = None;
      }
    in
    {
      Recovery.switch;
      begun_at = at_s;
      source;
      target;
      plan;
      demand;
      seed;
      slots =
        Array.of_list
          (List.concat
             (List.mapi (fun p -> List.map (slot p)) (Plan.pools plan)));
      commits = [];
      end_at = None;
      aborted = false;
      last_event = at_s;
      unmatched = 0;
    }

  let find_slot (sw : Recovery.switch) ~pool ~action ~terminal =
    let vm = Action.vm action in
    let best = ref (-1) and best_rank = ref min_int in
    for i = 0 to Array.length sw.slots - 1 do
      let s = sw.slots.(i) in
      if Action.vm s.action = vm && Action.equal s.action action then begin
        let rank =
          (if s.terminal = None then 4 else 0)
          + (if s.plan_pool = pool then 2 else 0)
          + if terminal = (s.attempts <> []) then 1 else 0
        in
        if rank > !best_rank then begin
          best_rank := rank;
          best := i
        end
      end
    done;
    if !best < 0 then None else Some !best

  let touch (sw : Recovery.switch) at_s =
    if at_s > sw.last_event then { sw with last_event = at_s } else sw

  let attach ~pool ~at_s ~action terminal sw =
    let sw = touch sw at_s in
    match find_slot sw ~pool ~action ~terminal:(terminal <> None) with
    | None -> { sw with unmatched = sw.unmatched + 1 }
    | Some i ->
      let s = sw.slots.(i) in
      sw.slots.(i) <-
        (if terminal = None then
           { s with record_pool = pool; attempts = s.attempts @ [ at_s ] }
         else { s with record_pool = pool; terminal });
      sw

  let rec update id f = function
    | [] -> []
    | (sw : Recovery.switch) :: rest when sw.switch = id -> f sw :: rest
    | sw :: rest -> sw :: update id f rest

  let step begun = function
    | Record.Switch_begin { switch; at_s; source; target; plan; demand; seed }
      ->
      opened ~switch ~at_s ~source ~target ~plan ~demand ~seed :: begun
    | Record.Action_started { switch; pool; at_s; action; _ } ->
      update switch (attach ~pool ~at_s ~action None) begun
    | Record.Action_done { switch; pool; at_s; action } ->
      update switch
        (attach ~pool ~at_s ~action (Some (Recovery.Done at_s)))
        begun
    | Record.Action_failed { switch; pool; at_s; action } ->
      update switch
        (attach ~pool ~at_s ~action (Some (Recovery.Failed at_s)))
        begun
    | Record.Pool_committed { switch; pool; at_s } ->
      update switch
        (fun sw ->
          { (touch sw at_s) with commits = sw.commits @ [ (pool, at_s) ] })
        begun
    | Record.Switch_end { switch; at_s; aborted } ->
      update switch
        (fun sw -> { (touch sw at_s) with end_at = Some at_s; aborted })
        begun
    | Record.Submission _ | Record.Ladder _ -> begun

  let switches records = List.rev (List.fold_left step [] records)
end

(* -- comparison ------------------------------------------------------------- *)

let differ name cut what = failwith (Printf.sprintf "%s, cut %d: %s" name cut what)

let sorted actions = List.sort compare actions

(* first occurrence order, as the former replay kept its pools *)
let dedup pools =
  List.rev
    (List.fold_left
       (fun acc p -> if List.mem p acc then acc else p :: acc)
       [] pools)

let check_replay name cut records =
  match (Former_replay.replay records, Recovery.replay records) with
  | None, None -> ()
  | Some _, None | None, Some _ -> differ name cut "one replay found no switch"
  | Some o, Some n ->
    let same what ok = if not ok then differ name cut what in
    same "switch id" (o.switch = n.Recovery.switch);
    same "seed" (o.seed = n.Recovery.seed);
    same "done set"
      (sorted (List.map snd o.done_actions)
      = sorted (Recovery.done_actions n));
    same "failed set"
      (sorted (List.map snd o.failed_actions)
      = sorted (Recovery.failed_actions n));
    same "in-flight set"
      (sorted (List.map snd o.in_flight) = sorted (Recovery.in_flight n));
    same "committed pools"
      (o.committed_pools = dedup (List.map fst n.Recovery.commits));
    same "ended" (o.ended = (n.Recovery.end_at <> None));
    same "aborted" (o.aborted = n.Recovery.aborted);
    same "unmatched records" (n.Recovery.unmatched = 0);
    same "projected configuration"
      (Configuration.equal
         (Former_replay.projected_config o)
         (Recovery.projected_config n))

let check_timeline name cut records =
  let olds = Former_timeline.of_records records
  and news =
    List.map Former_timeline.of_switch (Timeline.of_records records)
  in
  if List.length olds <> List.length news then
    differ name cut "switch count";
  List.iter2
    (fun (o : Former_timeline.reading) (n : Former_timeline.reading) ->
      let what =
        if o.switch <> n.switch then Some "switch id"
        else if o.begun_at <> n.begun_at then Some "begin time"
        else if o.commits <> n.commits then Some "commits"
        else if o.end_at <> n.end_at then Some "end time"
        else if o.aborted <> n.aborted then Some "aborted"
        else if o.last_event <> n.last_event then Some "last event"
        else if o.unmatched <> n.unmatched then Some "unmatched records"
        else if o.actions <> n.actions then
          Some "action slots (pools, attempt times, outcome, estimate)"
        else None
      in
      Option.iter
        (fun w -> differ name cut (Printf.sprintf "switch %d: %s" o.switch w))
        what)
    olds news

(* Every [every]-th cut of the journal at [path], both ends included. *)
let check_cuts ~every path =
  let records, dropped = Journal.load path in
  if dropped <> 0 then failwith (path ^ ": torn journal");
  let all = Array.of_list records in
  let n = Array.length all in
  let cuts = List.init ((n / every) + 1) (fun i -> i * every) in
  let cuts = if n mod every = 0 then cuts else cuts @ [ n ] in
  List.iter
    (fun cut ->
      let prefix = Array.to_list (Array.sub all 0 cut) in
      check_replay path cut prefix;
      check_timeline path cut prefix)
    cuts;
  (n, List.length cuts)

let case name ~every path =
  Alcotest.test_case name `Quick (fun () ->
      let n, _ = check_cuts ~every path in
      if n = 0 then Alcotest.fail (path ^ ": empty journal"))

(* -- slot index against the former slot match ------------------------------- *)

module Gen = QCheck.Gen

let fold_config =
  let nodes =
    Array.init 2 (fun i -> Node.testbed ~id:i ~name:(Printf.sprintf "N%d" i))
  in
  let vms =
    Array.init 3 (fun i ->
        Vm.make ~id:i ~name:(Printf.sprintf "vm%d" i) ~memory_mb:512)
  in
  Configuration.make ~nodes ~vms

(* Few VMs and nodes, so plans repeat identical actions across pools
   (and within one) and several slots share a VM. *)
let gen_slot_action =
  let open Gen in
  let vm = int_bound 2 and node = int_bound 1 in
  oneof
    [
      map2 (fun vm dst -> Action.Run { vm; dst }) vm node;
      map3 (fun vm src dst -> Action.Migrate { vm; src; dst }) vm node node;
      map2 (fun vm host -> Action.Suspend { vm; host }) vm node;
      map3 (fun vm src dst -> Action.Resume { vm; src; dst }) vm node node;
    ]

let gen_plan =
  Gen.(
    map Plan.make
      (list_size (int_range 1 3) (list_size (int_range 1 4) gen_slot_action)))

(* Switch ids 0-1 are begun (possibly twice), 2 never is; pools run one
   past the plans'; VM 3 is in no plan, so its records match no slot. *)
let gen_record =
  let open Gen in
  let switch = int_bound 2 and pool = int_bound 3 in
  let at_s = map float_of_int (int_bound 50) in
  let action =
    frequency
      [
        (6, gen_slot_action);
        (1, map (fun dst -> Action.Run { vm = 3; dst }) (int_bound 1));
      ]
  in
  frequency
    [
      ( 1,
        map3
          (fun switch at_s plan ->
            Record.Switch_begin
              {
                switch;
                at_s;
                source = fold_config;
                target = fold_config;
                plan;
                demand = Demand.uniform ~vm_count:3 10;
                seed = None;
              })
          (int_bound 1) at_s gen_plan );
      ( 6,
        map2
          (fun (switch, pool, at_s) (attempt, action) ->
            Record.Action_started { switch; pool; attempt; at_s; action })
          (triple switch pool at_s)
          (pair (int_range 1 3) action) );
      ( 4,
        map2
          (fun (switch, pool, at_s) action ->
            Record.Action_done { switch; pool; at_s; action })
          (triple switch pool at_s) action );
      ( 2,
        map2
          (fun (switch, pool, at_s) action ->
            Record.Action_failed { switch; pool; at_s; action })
          (triple switch pool at_s) action );
      ( 1,
        map3
          (fun switch pool at_s -> Record.Pool_committed { switch; pool; at_s })
          switch pool at_s );
      ( 1,
        map3
          (fun switch at_s aborted ->
            Record.Switch_end { switch; at_s; aborted })
          switch at_s bool );
    ]

(* Every field the fold computes; source, target, plan and demand pass
   through from the begin record. *)
let same_switch (o : Recovery.switch) (n : Recovery.switch) =
  o.switch = n.switch && o.begun_at = n.begun_at && o.seed = n.seed
  && o.slots = n.slots && o.commits = n.commits && o.end_at = n.end_at
  && o.aborted = n.aborted && o.last_event = n.last_event
  && o.unmatched = n.unmatched

let prop_slot_index =
  QCheck.Test.make ~name:"slot index matches every-slot ranking" ~count:500
    (QCheck.make
       ~print:(fun rs -> Fmt.str "@[<v>%a@]" (Fmt.list Record.pp) rs)
       Gen.(list_size (int_range 0 60) gen_record))
    (fun records ->
      let olds = Former_switches.switches records
      and news = Recovery.switches records in
      List.length olds = List.length news
      && List.for_all2 same_switch olds news)

(* -- explain bytes ---------------------------------------------------------- *)

(* The digest an md5sum file gives [name]. *)
let pinned_digest md5_file name =
  In_channel.with_open_text md5_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line with
         | [ digest; ""; file ] when file = name -> Some digest
         | _ -> None)

let pinned md5_file name () =
  match pinned_digest md5_file name with
  | None -> Alcotest.failf "%s has no %s line" md5_file name
  | Some digest ->
    Alcotest.(check string)
      (name ^ " digest") digest
      (Digest.to_hex (Digest.file name))

let () =
  match Array.to_list Sys.argv with
  | _ :: "cuts" :: every :: paths ->
    let every = int_of_string every in
    List.iter
      (fun path ->
        let n, cuts = check_cuts ~every path in
        Printf.printf "%s: %d records, %d cuts agree\n%!" path n cuts)
      paths
  | _ ->
    Alcotest.run "entropy_journal_fold"
      [
        ( "fold",
          [
            case "chaos kill journal, every cut" ~every:1
              "../sim/chaos_kill_wal.expected";
            case "chaos12 journal, every cut" ~every:1 "../sim/chaos12_wal.expected";
            case "burst0 journal, every 25th cut" ~every:25 "burst0.wal";
            QCheck_alcotest.to_alcotest prop_slot_index;
          ] );
        ( "explain",
          [
            Alcotest.test_case "burst0 explain json matches burst_explain.md5"
              `Quick
              (pinned "../daemon/burst_explain.md5" "burst0.explain.json");
            Alcotest.test_case
              "burst0 explain text matches burst_explain_text.md5" `Quick
              (pinned "../daemon/burst_explain_text.md5" "burst0.explain.txt");
            Alcotest.test_case "burst0 gantt matches burst_gantt.md5" `Quick
              (pinned "../daemon/burst_gantt.md5" "burst0.gantt.json");
          ] );
      ]

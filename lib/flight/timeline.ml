(* Fold of write-ahead journal records into per-switch causal timelines.

   The executor's records are ordered but intentionally sparse: an
   Action_started per supervised attempt, one terminal record per
   action (which may arrive with no preceding start when the source
   node was already dead), Pool_committed when a pool drains, and a
   Switch_end only if the controller survived long enough to write it.
   The fold therefore never assumes completeness — an action with
   attempts but no terminal was in flight when the journal stopped, a
   switch without Switch_end was cut, and records that match nothing in
   the plan are counted in [unmatched] rather than trusted. *)

open Entropy_core
module Jrecord = Entropy_journal.Record

type terminal = Done of float | Failed of float

let terminal_at = function Done t | Failed t -> t

type action_tl = {
  index : int;
  action : Action.t;
  plan_pool : int;
  record_pool : int;
  prereq : int option;
  attempts : float list;
  terminal : terminal option;
  est_s : float;
}

type switch_tl = {
  switch : int;
  begun_at : float;
  source : Configuration.t;
  target : Configuration.t;
  plan : Plan.t;
  demand : Demand.t;
  actions : action_tl array;
  commits : (int * float) list;
  end_at : float option;
  aborted : bool;
  last_event : float;
  unmatched : int;
}

(* -- builders -------------------------------------------------------------- *)

type action_builder = {
  mutable b_record_pool : int option;
  mutable b_attempts : float list; (* reverse order *)
  mutable b_terminal : terminal option;
}

type switch_builder = {
  sb_switch : int;
  sb_begun : float;
  sb_source : Configuration.t;
  sb_target : Configuration.t;
  sb_plan : Plan.t;
  sb_demand : Demand.t;
  sb_actions : Action.t array; (* flat pool order *)
  sb_pools : int array; (* plan pool of each flat index *)
  sb_state : action_builder array;
  mutable sb_commits : (int * float) list; (* reverse order *)
  mutable sb_end : float option;
  mutable sb_aborted : bool;
  mutable sb_last : float;
  mutable sb_unmatched : int;
}

let make_builder ~switch ~at_s ~source ~target ~plan ~demand =
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
    sb_target = target;
    sb_plan = plan;
    sb_demand = demand;
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

(* Match a journal record's action back to a plan slot. Plans almost
   never repeat an identical action, but the match still prefers a slot
   without a terminal outcome, and among those the one whose plan pool
   agrees with the record's, so even adversarial journals attach
   records deterministically. *)
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
          plan_pool = sb.sb_pools.(i);
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
    target = sb.sb_target;
    plan = sb.sb_plan;
    demand = sb.sb_demand;
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
      | Jrecord.Switch_begin { switch; at_s; source; target; plan; demand; _ }
        ->
        let sb = make_builder ~switch ~at_s ~source ~target ~plan ~demand in
        Hashtbl.replace tbl switch sb;
        order := sb :: !order
      | Jrecord.Action_started { switch; pool; at_s; action; _ } ->
        Option.iter
          (fun sb -> on_started sb ~pool ~at_s ~action)
          (Hashtbl.find_opt tbl switch)
      | Jrecord.Action_done { switch; pool; at_s; action } ->
        Option.iter
          (fun sb -> on_terminal sb ~pool ~at_s ~action (fun t -> Done t))
          (Hashtbl.find_opt tbl switch)
      | Jrecord.Action_failed { switch; pool; at_s; action } ->
        Option.iter
          (fun sb -> on_terminal sb ~pool ~at_s ~action (fun t -> Failed t))
          (Hashtbl.find_opt tbl switch)
      | Jrecord.Pool_committed { switch; pool; at_s } ->
        Option.iter
          (fun sb ->
            touch sb at_s;
            sb.sb_commits <- (pool, at_s) :: sb.sb_commits)
          (Hashtbl.find_opt tbl switch)
      | Jrecord.Switch_end { switch; at_s; aborted } ->
        Option.iter
          (fun sb ->
            touch sb at_s;
            sb.sb_end <- Some at_s;
            sb.sb_aborted <- aborted)
          (Hashtbl.find_opt tbl switch)
      (* daemon-level records carry no switch activity *)
      | Jrecord.Submission _ | Jrecord.Ladder _ -> ())
    records;
  List.rev_map freeze !order

(* -- derived views --------------------------------------------------------- *)

let makespan sw = Float.max 0. (sw.last_event -. sw.begun_at)

let executed a = a.attempts <> [] || a.terminal <> None

let first_start a =
  match (a.attempts, a.terminal) with
  | t :: _, _ -> Some t
  | [], Some t -> Some (terminal_at t) (* terminal with no start: zero span *)
  | [], None -> None

let finish_time sw a =
  match a.terminal with Some t -> terminal_at t | None -> sw.last_event

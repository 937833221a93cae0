(* The switches of [Recovery.switches], the one fold of journal records,
   plus each slot's same-VM predecessor and duration estimate. *)

open Entropy_core
module R = Entropy_journal.Recovery

type terminal = R.terminal = Done of float | Failed of float

let terminal_at = R.terminal_at

type action_tl = {
  index : int;
  action : Action.t;
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
  plan : Plan.t;
  actions : action_tl array;
  commits : (int * float) list;
  end_at : float option;
  aborted : bool;
  last_event : float;
  unmatched : int;
}

let of_switch (sw : R.switch) =
  let prereq = Continuous.vm_prerequisites sw.plan in
  {
    switch = sw.switch;
    begun_at = sw.begun_at;
    source = sw.source;
    plan = sw.plan;
    actions =
      Array.mapi
        (fun index (s : R.slot) ->
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

let of_records records = List.map of_switch (R.switches records)

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

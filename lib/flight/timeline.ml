(* The readings of a [Recovery.switch] that the critical-path analysis
   and the Gantt view share. *)

module R = Entropy_journal.Recovery

let of_records = R.switches

let makespan (sw : R.switch) = Float.max 0. (sw.last_event -. sw.begun_at)

let executed (s : R.slot) = s.attempts <> [] || s.terminal <> None

let first_start (s : R.slot) =
  match (s.attempts, s.terminal) with
  | t :: _, _ -> Some t
  | [], Some t -> Some (R.terminal_at t) (* terminal with no start: zero span *)
  | [], None -> None

let finish_time (sw : R.switch) (s : R.slot) =
  match s.terminal with Some t -> R.terminal_at t | None -> sw.last_event

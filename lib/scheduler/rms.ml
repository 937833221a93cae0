(* Reservation-based scheduling policies of traditional RMS (section
   2.1): strict First-Come-First-Served, and FCFS with backfilling.

   Reservations are rigid: a job occupies its nodes for the whole
   requested walltime (the slot), whatever its actual duration — the
   static-allocation behaviour the paper criticises. With
   [release:`Actual], slots are instead freed at completion time, an
   oracle variant used for ablations.

   With simultaneous arrivals (the paper's section 5.2 workload), EASY
   and conservative backfilling coincide: both reduce to in-order
   earliest-fit with out-of-order starts, which is what [backfill]
   implements. *)

type release = Walltime | Actual

type schedule = {
  placements : Job.placement list;  (* in job order *)
  makespan : float;                 (* last slot end or completion *)
  capacity : int;
}

let occupancy release (job : Job.t) =
  match release with
  | Walltime -> job.Job.walltime
  | Actual -> Float.min job.Job.actual job.Job.walltime

let finish_time release p =
  match release with
  | Walltime -> Job.slot_end p
  | Actual -> (
    match Job.completion p with
    | Some t -> t
    | None -> Job.slot_end p (* killed at the end of the slot *))

let mk_schedule release capacity placements =
  {
    placements = List.rev placements;
    makespan =
      List.fold_left
        (fun acc p -> Float.max acc (finish_time release p))
        0. placements;
    capacity;
  }

(* Strict FCFS: jobs start in arrival order, no overtaking. *)
let fcfs ?(release = Walltime) ~capacity jobs =
  let profile = Profile.create ~capacity in
  let jobs = List.sort Job.compare_fcfs jobs in
  let placements, _ =
    List.fold_left
      (fun (acc, prev_start) (job : Job.t) ->
        let after = Float.max job.Job.arrival prev_start in
        let duration = occupancy release job in
        let start =
          Profile.earliest profile ~after ~nodes:job.Job.nodes_required
            ~duration
        in
        Profile.allocate profile ~start ~finish:(start +. duration)
          ~nodes:job.Job.nodes_required;
        ({ Job.job; start } :: acc, start))
      ([], 0.) jobs
  in
  mk_schedule release capacity placements

(* Backfilling: jobs are reserved in arrival order at their earliest
   fit; a later job may start before an earlier one when holes allow. *)
let backfill ?(release = Walltime) ~capacity jobs =
  let profile = Profile.create ~capacity in
  let jobs = List.sort Job.compare_fcfs jobs in
  let placements =
    List.fold_left
      (fun acc (job : Job.t) ->
        let duration = occupancy release job in
        let start =
          Profile.earliest profile ~after:job.Job.arrival
            ~nodes:job.Job.nodes_required ~duration
        in
        Profile.allocate profile ~start ~finish:(start +. duration)
          ~nodes:job.Job.nodes_required;
        { Job.job; start } :: acc)
      [] jobs
  in
  mk_schedule release capacity placements

(* Lower bound with ideal preemption: jobs can run partially and move
   freely (what cluster-wide context switches enable, Figure 1 (c)):
   total work area over capacity, and no job shorter than itself. *)
let preemptive_lower_bound ~capacity jobs =
  let area =
    List.fold_left
      (fun acc (j : Job.t) ->
        acc +. (float_of_int j.Job.nodes_required *. j.Job.actual))
      0. jobs
  in
  let longest =
    List.fold_left (fun acc (j : Job.t) -> Float.max acc j.Job.actual) 0. jobs
  in
  Float.max (area /. float_of_int capacity) longest

(* -- event-driven (online) variant -------------------------------------------

   The profile-based schedulers above decide everything at once, using
   either walltimes (rigid) or an oracle of actual durations. A real RMS
   is *online*: it frees nodes the moment a job exits (when the job was
   within its walltime) and only then reconsiders the queue. This
   event-driven simulation captures that: at every job arrival or
   completion, scan the queue in order and start every job that fits
   ([backfill:true]) or the longest feasible prefix ([backfill:false],
   strict FCFS). *)

let simulate ?(backfill = true) ~capacity jobs =
  let queue = ref (List.sort Job.compare_fcfs jobs) in
  let running = ref [] in (* (finish_time, placement) *)
  let placements = ref [] in
  let free = ref capacity in
  let now = ref 0. in
  let makespan = ref 0. in
  let start_job (job : Job.t) =
    let occupancy = Float.min job.Job.actual job.Job.walltime in
    let finish = !now +. occupancy in
    Log.debug (fun m ->
        m "start job %d (%s): %d nodes at t=%.0f until t=%.0f" job.Job.id
          job.Job.name job.Job.nodes_required !now finish);
    free := !free - job.Job.nodes_required;
    running := (finish, { Job.job; start = !now }) :: !running;
    placements := { Job.job; start = !now } :: !placements;
    if finish > !makespan then makespan := finish
  in
  let try_start () =
    let rec scan blocked = function
      | [] -> List.rev blocked
      | (job : Job.t) :: rest ->
        if job.Job.arrival > !now then scan (job :: blocked) rest
        else if job.Job.nodes_required <= !free then begin
          start_job job;
          scan blocked rest
        end
        else if backfill then scan (job :: blocked) rest
        else List.rev_append blocked (job :: rest) (* strict: stop here *)
    in
    queue := scan [] !queue
  in
  let next_event () =
    let completion =
      List.fold_left
        (fun acc (finish, _) ->
          match acc with
          | None -> Some finish
          | Some f -> Some (Float.min f finish))
        None !running
    in
    let arrival =
      List.fold_left
        (fun acc (j : Job.t) ->
          if j.Job.arrival > !now then
            match acc with
            | None -> Some j.Job.arrival
            | Some a -> Some (Float.min a j.Job.arrival)
          else acc)
        None !queue
    in
    match (completion, arrival) with
    | None, None -> None
    | Some t, None | None, Some t -> Some t
    | Some a, Some b -> Some (Float.min a b)
  in
  try_start ();
  let rec loop () =
    if !queue <> [] || !running <> [] then
      match next_event () with
      | None -> () (* queued jobs that can never start *)
      | Some t ->
        now := t;
        let done_, still = List.partition (fun (f, _) -> f <= !now) !running in
        running := still;
        List.iter
          (fun (_, p) -> free := !free + p.Job.job.Job.nodes_required)
          done_;
        try_start ();
        loop ()
  in
  loop ();
  {
    placements = List.rev !placements;
    makespan = !makespan;
    capacity;
  }

(* Nodes occupied at a given time. *)
let used_nodes ?(release = Walltime) schedule time =
  List.fold_left
    (fun acc (p : Job.placement) ->
      let finish = finish_time release p in
      if p.Job.start <= time && time < finish then
        acc + p.Job.job.Job.nodes_required
      else acc)
    0 schedule.placements

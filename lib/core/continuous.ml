(* Continuous (event-driven) scheduling of a reconfiguration plan.

   The pool-based plan of section 4.1 is conservative: an action of pool
   k+1 waits for *every* action of pool k, even when it only needs the
   resources one of them frees. This module relaxes the barriers: each
   action starts the moment its destination can accommodate its claim —
   the approach the authors later adopted in Entropy 2/BtrPlace to
   shorten the cluster-wide context switch.

   Semantics (the pool executor's per-action rules, without barriers):
   - an action's claim (see {!Action.claim}) is reserved when it starts;
   - the resources it frees become available when it completes
     (migrate/suspend/stop free their source, a RAM suspend frees CPU);
   - vjob consistency is preserved: the suspends (resp. resumes) of a
     vjob start together, pipelined one second apart (section 4.1).

   Starting from a feasible plan (the planner already inserted any
   bypass or disk-break actions), the greedy earliest-start rule cannot
   deadlock: the final configuration is viable, so all pending claims on
   a node fit together — a started action never consumes capacity a
   pending claim will still need, and every wait is for a freeing action
   that only depends on *its own* destination. *)

type entry = { action : Action.t; start : float; finish : float }

type t = { entries : entry list; makespan : float }

let entries t = t.entries
let makespan t = t.makespan

exception Stuck of string

(* Resources an action releases when it completes: (node, cpu, mem). *)
let frees config demand action =
  let vm = Action.vm action in
  let cpu = Demand.cpu demand vm in
  let mem = Vm.memory_mb (Configuration.vm config vm) in
  match action with
  | Action.Migrate { src; dst; _ } ->
    if src = dst then [] else [ (src, cpu, mem) ]
  | Action.Suspend { host; _ } | Action.Stop { host; _ } ->
    [ (host, cpu, mem) ]
  | Action.Suspend_ram { host; _ } -> [ (host, cpu, 0) ]
  | Action.Run _ | Action.Resume _ | Action.Resume_ram _ -> []

(* Group the plan's actions so that a vjob's suspends (resp. resumes)
   start together. Each action carries its index in the plan's pool
   order: two actions on the same VM (a bypass migration and its second
   leg, a disk-break suspend and its resume) must execute in that
   order, which the resource ledger alone cannot see. *)
let group_actions ?(vjobs = []) plan =
  let all = List.mapi (fun i a -> (i, a)) (Plan.actions plan) in
  let vjob_of vm =
    List.find_opt (fun vj -> List.mem vm (Vjob.vms vj)) vjobs
  in
  let keyed =
    List.map
      (fun (i, a) ->
        let key =
          match a with
          | Action.Suspend _ | Action.Suspend_ram _ -> (
            match vjob_of (Action.vm a) with
            | Some vj -> `Suspends (Vjob.id vj)
            | None -> `Alone i)
          | Action.Resume _ | Action.Resume_ram _ -> (
            match vjob_of (Action.vm a) with
            | Some vj -> `Resumes (Vjob.id vj)
            | None -> `Alone i)
          | Action.Run _ | Action.Stop _ | Action.Migrate _ -> `Alone i
        in
        (key, (i, a)))
      all
  in
  let table = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (key, ia) ->
      match Hashtbl.find_opt table key with
      | Some acc -> acc := ia :: !acc
      | None ->
        let acc = ref [ ia ] in
        Hashtbl.replace table key acc;
        order := key :: !order)
    keyed;
  List.rev_map (fun key -> List.rev !(Hashtbl.find table key)) !order

(* prereq.(i) = index of the previous plan action on the same VM. *)
let vm_prerequisites plan =
  let all = Plan.actions plan in
  let n = List.length all in
  let prereq = Array.make n None in
  let last = Hashtbl.create 16 in
  List.iteri
    (fun i a ->
      let vm = Action.vm a in
      (match Hashtbl.find_opt last vm with
      | Some j -> prereq.(i) <- Some j
      | None -> ());
      Hashtbl.replace last vm i)
    all;
  prereq

let schedule ?vjobs ~current ~demand ~plan () =
  let n = Configuration.node_count current in
  let cpu_load, mem_load = Configuration.loads current demand in
  let free_cpu =
    Array.init n (fun i ->
        Node.cpu_capacity (Configuration.node current i) - cpu_load.(i))
  in
  let free_mem =
    Array.init n (fun i ->
        Node.memory_mb (Configuration.node current i) - mem_load.(i))
  in
  let gap = Schedule.durations.pipeline_gap_s in
  let pending = ref (group_actions ?vjobs plan) in
  let prereq = vm_prerequisites plan in
  let completed = Array.make (Array.length prereq) false in
  (* completion events: (time, index, frees) *)
  let events = ref [] in
  let entries = ref [] in
  let now = ref 0. in
  let makespan = ref 0. in
  let group_feasible g =
    List.for_all
      (fun (i, _) ->
        match prereq.(i) with None -> true | Some j -> completed.(j))
      g
    &&
    let need_cpu = Array.make n 0 and need_mem = Array.make n 0 in
    List.iter
      (fun (_, a) ->
        match Action.claim current demand a with
        | Some (node, cpu, mem) ->
          need_cpu.(node) <- need_cpu.(node) + cpu;
          need_mem.(node) <- need_mem.(node) + mem
        | None -> ())
      g;
    let ok = ref true in
    for i = 0 to n - 1 do
      (* only nodes the group claims on matter: an unrelated node may
         legitimately be overloaded (negative free) in the current
         configuration — that is what the switch is fixing *)
      if
        (need_cpu.(i) > 0 || need_mem.(i) > 0)
        && (need_cpu.(i) > free_cpu.(i) || need_mem.(i) > free_mem.(i))
      then ok := false
    done;
    !ok
  in
  let start_group g =
    List.iteri
      (fun k (i, a) ->
        (match Action.claim current demand a with
        | Some (node, cpu, mem) ->
          free_cpu.(node) <- free_cpu.(node) - cpu;
          free_mem.(node) <- free_mem.(node) - mem
        | None -> ());
        let offset = if List.length g > 1 then float_of_int k *. gap else 0. in
        let start = !now +. offset in
        let finish = start +. Schedule.action_duration current a in
        entries := { action = a; start; finish } :: !entries;
        if finish > !makespan then makespan := finish;
        events := (finish, i, frees current demand a) :: !events)
      g
  in
  let try_start () =
    let rec scan () =
      let started = ref false in
      pending :=
        List.filter
          (fun g ->
            if group_feasible g then begin
              start_group g;
              started := true;
              false
            end
            else true)
          !pending;
      if !started then scan ()
    in
    scan ()
  in
  try_start ();
  let rec loop () =
    if !pending <> [] || !events <> [] then begin
      match !events with
      | [] ->
        raise
          (Stuck
             (Printf.sprintf "%d groups can never start"
                (List.length !pending)))
      | evs ->
        let t =
          List.fold_left (fun acc (t, _, _) -> Float.min acc t) infinity evs
        in
        now := t;
        let due, later = List.partition (fun (ft, _, _) -> ft <= t) evs in
        events := later;
        List.iter
          (fun (_, i, freed) ->
            completed.(i) <- true;
            List.iter
              (fun (node, cpu, mem) ->
                free_cpu.(node) <- free_cpu.(node) + cpu;
                free_mem.(node) <- free_mem.(node) + mem)
              freed)
          due;
        try_start ();
        loop ()
    end
  in
  loop ();
  {
    entries = List.sort (fun a b -> Float.compare a.start b.start) (List.rev !entries);
    makespan = !makespan;
  }

let pp ppf t =
  List.iter
    (fun e ->
      Fmt.pf ppf "%7.1f -> %7.1f  %a@." e.start e.finish Action.pp e.action)
    t.entries;
  Fmt.pf ppf "continuous switch duration: %.1f s@." t.makespan
